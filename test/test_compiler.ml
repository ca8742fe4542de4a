open Build
open Build.Infix
module Mode = Shift_compiler.Mode
module Compile = Shift_compiler.Compile
module Image = Shift_compiler.Image
module Instr = Shift_isa.Instr
module Prov = Shift_isa.Prov

let tc = Util.tc

let compile ?(mode = Mode.Uninstrumented) prog = Compile.compile ~mode prog

let run_main ?mode body =
  Util.exit_code (Util.run_prog ?mode (Util.main_returning body))

(* ---------- random expression semantics: compiled vs reference ---------- *)

type rexpr =
  | RConst of int64
  | RBin of Ir.binop * rexpr * rexpr

let rec reval = function
  | RConst c -> c
  | RBin (op, a, b) ->
      let x = reval a and y = reval b in
      let amt v = Int64.to_int (Int64.logand v 63L) in
      let b2i c = if c then 1L else 0L in
      (match op with
      | Ir.Add -> Int64.add x y
      | Ir.Sub -> Int64.sub x y
      | Ir.Mul -> Int64.mul x y
      | Ir.Band -> Int64.logand x y
      | Ir.Bor -> Int64.logor x y
      | Ir.Bxor -> Int64.logxor x y
      | Ir.Shl -> Int64.shift_left x (amt y)
      | Ir.Shr -> Int64.shift_right_logical x (amt y)
      | Ir.Sar -> Int64.shift_right x (amt y)
      | Ir.Eq -> b2i (x = y)
      | Ir.Ne -> b2i (x <> y)
      | Ir.Lt -> b2i (x < y)
      | Ir.Le -> b2i (x <= y)
      | Ir.Gt -> b2i (x > y)
      | Ir.Ge -> b2i (x >= y)
      | Ir.Ltu -> b2i (Int64.unsigned_compare x y < 0)
      | Ir.Geu -> b2i (Int64.unsigned_compare x y >= 0)
      | Ir.Land -> b2i (x <> 0L && y <> 0L)
      | Ir.Lor -> b2i (x <> 0L || y <> 0L)
      | Ir.Div | Ir.Rem -> assert false)

let rec rexpr_to_ir = function
  | RConst c -> i64 c
  | RBin (op, a, b) -> Ir.Binop (op, rexpr_to_ir a, rexpr_to_ir b)

let ops =
  [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Band; Ir.Bor; Ir.Bxor; Ir.Shl; Ir.Shr; Ir.Sar;
    Ir.Eq; Ir.Ne; Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge; Ir.Ltu; Ir.Geu; Ir.Land; Ir.Lor ]

let gen_rexpr =
  QCheck.Gen.(
    sized_size (int_bound 5) (fix (fun self n ->
        if n = 0 then map (fun c -> RConst (Int64.of_int c)) (int_range (-1000) 1000)
        else
          map3
            (fun op a b -> RBin (op, a, b))
            (oneofl ops) (self (n / 2)) (self (n / 2)))))

let arb_rexpr = QCheck.make ~print:(fun e -> Int64.to_string (reval e)) gen_rexpr

let prop_expr_semantics mode =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "random expressions match reference (%s)" (Mode.to_string mode))
       ~count:60 arb_rexpr
       (fun e ->
         (* exit codes are compared as full 64-bit values *)
         run_main ~mode [ ret (rexpr_to_ir e) ] = reval e))

(* ---------- structured programs ---------- *)

let fib_body =
  [
    set "a" (i 0);
    set "b" (i 1);
    set "k" (i 0);
    while_ (v "k" <: v "n")
      [
        set "t" (v "a" +: v "b");
        set "a" (v "b");
        set "b" (v "t");
        set "k" (v "k" +: i 1);
      ];
    ret (v "a");
  ]

let fib_prog =
  {
    Ir.globals = [];
    funcs =
      [
        func "fib" ~params:[ "n" ] ~locals:[ scalar "a"; scalar "b"; scalar "t"; scalar "k" ] fib_body;
        func "main" ~params:[] ~locals:[] [ ret (call "fib" [ i 20 ]) ];
      ];
  }

let recursion_prog =
  {
    Ir.globals = [];
    funcs =
      [
        func "fact" ~params:[ "n" ] ~locals:[]
          [
            when_ (v "n" <=: i 1) [ ret (i 1) ];
            ret (v "n" *: call "fact" [ v "n" -: i 1 ]);
          ];
        func "main" ~params:[] ~locals:[] [ ret (call "fact" [ i 10 ]) ];
      ];
  }

let array_prog =
  Util.main_returning
    ~locals:[ array "a" 80; scalar "k"; scalar "sum" ]
    (for_up "k" (i 0) (i 10) [ store64 (v "a" +: (v "k" *: i 8)) (v "k" *: v "k") ]
    @ [ set "sum" (i 0) ]
    @ for_up "k" (i 0) (i 10) [ set "sum" (v "sum" +: load64 (v "a" +: (v "k" *: i 8))) ]
    @ [ ret (v "sum") ])

let global_prog =
  {
    Ir.globals = [ global_words "table" [ 10L; 20L; 30L ] ];
    funcs =
      [
        func "main" ~params:[] ~locals:[]
          [ ret (load64 (v "table") +: load64 (v "table" +: i 16)) ];
      ];
  }

let spill_locals_prog =
  (* more scalars than the 24 register homes: forces frame spills *)
  let names = List.init 30 (Printf.sprintf "x%d") in
  let assigns = List.mapi (fun k name -> set name (i (k + 1))) names in
  let total = List.fold_left (fun acc name -> acc +: v name) (i 0) names in
  Util.main_returning ~locals:(List.map scalar names) (assigns @ [ ret total ])

let semantics_per_mode name prog expected =
  List.map
    (fun mode ->
      tc
        (Printf.sprintf "%s (%s)" name (Mode.to_string mode))
        (fun () -> Util.check_i64 name expected (Util.exit_code (Util.run_prog ~mode prog))))
    Util.all_modes

let program_tests =
  semantics_per_mode "fib 20" fib_prog 6765L
  @ semantics_per_mode "factorial 10 recursive" recursion_prog 3628800L
  @ semantics_per_mode "array sum of squares" array_prog 285L
  @ semantics_per_mode "global words" global_prog 40L
  @ semantics_per_mode "spilled locals" spill_locals_prog 465L
  @ [
      tc "break and continue" (fun () ->
          let prog =
            Util.main_returning ~locals:[ scalar "sum"; scalar "k" ]
              [
                set "sum" (i 0);
                set "k" (i 0);
                while_ (i 1)
                  [
                    set "k" (v "k" +: i 1);
                    when_ (v "k" >: i 10) [ Ir.Break ];
                    when_ ((v "k" %: i 2) ==: i 0) [ Ir.Continue ];
                    set "sum" (v "sum" +: v "k");
                  ];
                ret (v "sum");
              ]
          in
          Util.check_i64 "odd sum" 25L
            (Util.exit_code (Util.run_prog ~mode:Mode.shift_word prog)));
      tc "string literals are interned once" (fun () ->
          let prog =
            Util.main_returning ~locals:[ scalar "a"; scalar "b" ]
              [ set "a" (str "hello"); set "b" (str "hello"); ret (v "a" ==: v "b") ]
          in
          Util.check_i64 "same address" 1L (Util.exit_code (Util.run_prog prog)));
      tc "short-circuit prevents evaluation" (fun () ->
          (* the right operand would dereference null *)
          let prog =
            Util.main_returning ~locals:[ scalar "p" ]
              [
                set "p" (i 0);
                when_ ((v "p" <>: i 0) &&: (load8 (v "p") ==: i 7)) [ ret (i 1) ];
                ret (i 2);
              ]
          in
          List.iter
            (fun mode ->
              Util.check_i64 (Mode.to_string mode) 2L
                (Util.exit_code (Util.run_prog ~mode prog)))
            Util.all_modes);
      tc "missing main rejected" (fun () ->
          match compile { Ir.globals = []; funcs = [] } with
          | _ -> Alcotest.fail "expected error"
          | exception Compile.Error _ -> ());
    ]

(* ---------- instrumentation structure ---------- *)

let count_prov image p = Shift_isa.Program.count_prov image.Image.program p

let structure_tests =
  [
    tc "string literals are numbered per compile" (fun () ->
        let prog lits = Util.main_returning (List.map (fun l -> ret (str l)) lits) in
        let strings image =
          List.sort compare
            (List.filter
               (fun (name, _) -> String.starts_with ~prefix:"__str" name)
               image.Image.symbols)
        in
        let first = compile (prog [ "a"; "b" ]) in
        ignore (compile (prog [ "c"; "d"; "e" ]));
        let again = compile (prog [ "a"; "b" ]) in
        Util.check_bool "names restart at __str1" true
          (List.map fst (strings again) = [ "__str1"; "__str2" ]);
        Util.check_bool "same image bytes" true
          (Marshal.to_string first [] = Marshal.to_string again []));
    tc "uninstrumented code has only Orig provenance" (fun () ->
        let image = Shift.Session.build ~mode:Mode.Uninstrumented fib_prog in
        List.iter
          (fun p ->
            if p <> Prov.Orig then Util.check_int (Prov.to_string p) 0 (count_prov image p))
          (List.init Prov.card Prov.of_index));
    tc "shift mode inserts load and store instrumentation" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word array_prog in
        Util.check_bool "ld-mem" true (count_prov image Prov.Ld_mem > 0);
        Util.check_bool "st-mem" true (count_prov image Prov.St_mem > 0);
        Util.check_bool "cmp-relax" true (count_prov image Prov.Cmp_relax > 0);
        Util.check_bool "nat-gen" true (count_prov image Prov.Nat_gen > 0));
    tc "all original stores become spills under shift" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word array_prog in
        Array.iter
          (fun (ins : Instr.t) ->
            match ins.op with
            | Instr.St { spill; _ } when ins.prov = Prov.Orig ->
                Util.check_bool "spill" true spill
            | _ -> ())
          image.Image.program.code);
    tc "enhancement 1 removes NaT generation, adds setnat" (fun () ->
        let base = Shift.Session.build ~mode:Mode.shift_word array_prog in
        let enh =
          Shift.Session.build
            ~mode:(Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh1 })
            array_prog
        in
        let has_setnat img =
          Array.exists
            (fun (ins : Instr.t) -> match ins.Instr.op with Instr.Setnat _ -> true | _ -> false)
            img.Image.program.code
        in
        Util.check_bool "base has no setnat" false (has_setnat base);
        Util.check_bool "enh has setnat" true (has_setnat enh);
        Util.check_bool "enh smaller" true (Image.code_size enh < Image.code_size base));
    tc "enhancement 2 removes relaxation code" (fun () ->
        let enh_both =
          Shift.Session.build
            ~mode:(Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh_both })
            array_prog
        in
        Util.check_int "no relax" 0 (count_prov enh_both Prov.Cmp_relax));
    tc "byte tracking needs more code than word tracking" (fun () ->
        let byte = Shift.Session.build ~mode:Mode.shift_byte array_prog in
        let word = Shift.Session.build ~mode:Mode.shift_word array_prog in
        let orig = Shift.Session.build ~mode:Mode.Uninstrumented array_prog in
        Util.check_bool "byte >= word" true (Image.code_size byte >= Image.code_size word);
        Util.check_bool "word > orig" true (Image.code_size word > Image.code_size orig));
    tc "software DBT instruments everything" (fun () ->
        let image =
          Shift.Session.build
            ~mode:(Mode.Software_dbt { granularity = Shift_mem.Granularity.Word })
            fib_prog
        in
        Util.check_bool "shadow code dominates" true
          (count_prov image Prov.Shadow > count_prov image Prov.Orig));
    tc "function sizes are recorded" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word fib_prog in
        Util.check_bool "has fib" true (List.mem_assoc "fib" image.Image.func_sizes);
        Util.check_bool "has strlen" true (List.mem_assoc "strlen" image.Image.func_sizes);
        Util.check_bool "all positive" true
          (List.for_all (fun (_, n) -> n > 0) image.Image.func_sizes));
  ]

let expr_tests =
  List.map prop_expr_semantics
    [ Mode.Uninstrumented; Mode.shift_word; Mode.shift_byte ]

let suites =
  [
    ("compiler.programs", program_tests);
    ("compiler.expressions", expr_tests);
    ("compiler.structure", structure_tests);
  ]
