(* Extension features: Guard (§3.3.3), function pointers / Icall,
   untaint (§3.3.2) and the configurable tainted-pointer policy. *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode

let tc = Util.tc

(* ---------- Guard ---------- *)

let guard_prog =
  Util.main_returning ~locals:[ array "buf" 16; scalar "x" ]
    [
      store64 (v "buf") (i 7);
      Ir.Expr (call "sys_taint_set" [ v "buf"; i 8; i 1 ]);
      set "x" (load64 (v "buf"));
      guard (v "x") [ ret (i 100) ];
      ret (v "x");
    ]

let guard_clean_prog =
  Util.main_returning ~locals:[ array "buf" 16; scalar "x" ]
    [
      store64 (v "buf") (i 7);
      set "x" (load64 (v "buf"));
      guard (v "x") [ ret (i 100) ];
      ret (v "x");
    ]

let guard_fallthrough_prog =
  Util.main_returning ~locals:[ array "buf" 16; scalar "x"; scalar "log" ]
    [
      store64 (v "buf") (i 7);
      Ir.Expr (call "sys_taint_set" [ v "buf"; i 8; i 1 ]);
      set "x" (load64 (v "buf"));
      set "log" (i 0);
      (* the handler falls through: execution resumes after the guard *)
      guard (v "x") [ set "log" (i 1) ];
      ret ((v "log" *: i 1000) +: v "x");
    ]

let guard_tests =
  [
    tc "guard fires on tainted data under SHIFT" (fun () ->
        Util.check_i64 "handler ran" 100L
          (Util.exit_code (Util.run_prog ~mode:Mode.shift_word guard_prog)));
    tc "guard fires at byte granularity too" (fun () ->
        Util.check_i64 "handler ran" 100L
          (Util.exit_code (Util.run_prog ~mode:Mode.shift_byte guard_prog)));
    tc "guard is silent on clean data" (fun () ->
        Util.check_i64 "no handler" 7L
          (Util.exit_code (Util.run_prog ~mode:Mode.shift_word guard_clean_prog)));
    tc "guard cannot fire without the NaT hardware" (fun () ->
        Util.check_i64 "no tags, no guard" 7L
          (Util.exit_code (Util.run_prog ~mode:Mode.Uninstrumented guard_prog)));
    tc "guard handler can fall through and resume" (fun () ->
        Util.check_i64 "logged and resumed" 1007L
          (Util.exit_code (Util.run_prog ~mode:Mode.shift_word guard_fallthrough_prog)));
    tc "guard inside a loop can break out" (fun () ->
        let prog =
          Util.main_returning ~locals:[ array "buf" 16; scalar "k"; scalar "x" ]
            [
              store64 (v "buf") (i 5);
              Ir.Expr (call "sys_taint_set" [ v "buf"; i 8; i 1 ]);
              set "k" (i 0);
              while_ (v "k" <: i 10)
                [
                  when_ (v "k" ==: i 3) [ set "x" (load64 (v "buf")); guard (v "x") [ Ir.Break ] ];
                  set "k" (v "k" +: i 1);
                ];
              ret (v "k");
            ]
        in
        Util.check_i64 "broke at 3" 3L
          (Util.exit_code (Util.run_prog ~mode:Mode.shift_word prog)));
  ]

(* ---------- function pointers ---------- *)

let dispatch_prog =
  {
    Ir.globals = [];
    funcs =
      [
        func "twice" ~params:[ "x" ] ~locals:[] [ ret (v "x" *: i 2) ];
        func "thrice" ~params:[ "x" ] ~locals:[] [ ret (v "x" *: i 3) ];
        func "main" ~params:[] ~locals:[ scalar "f"; scalar "g" ]
          [
            set "f" (fnptr "twice");
            set "g" (fnptr "thrice");
            ret (icall (v "f") [ i 10 ] +: icall (v "g") [ i 10 ]);
          ];
      ];
  }

let fnptr_tests =
  List.map
    (fun mode ->
      tc
        (Printf.sprintf "indirect calls dispatch correctly (%s)" (Mode.to_string mode))
        (fun () ->
          Util.check_i64 "20+30" 50L (Util.exit_code (Util.run_prog ~mode dispatch_prog))))
    Util.all_modes
  @ [
      tc "function pointers stored to memory survive" (fun () ->
          let prog =
            {
              Ir.globals = [];
              funcs =
                [
                  func "inc" ~params:[ "x" ] ~locals:[] [ ret (v "x" +: i 1) ];
                  func "main" ~params:[] ~locals:[ array "slot" 8 ]
                    [
                      store64 (v "slot") (fnptr "inc");
                      ret (icall (load64 (v "slot")) [ i 41 ]);
                    ];
                ];
            }
          in
          Util.check_i64 "through memory" 42L
            (Util.exit_code (Util.run_prog ~mode:Mode.shift_word prog)));
      tc "unknown function pointer is rejected at validation" (fun () ->
          let prog =
            Util.main_returning [ ret (icall (fnptr "nonexistent") []) ]
          in
          match Shift.Session.build ~mode:Mode.Uninstrumented prog with
          | _ -> Alcotest.fail "expected a validation error"
          | exception Shift_compiler.Compile.Error _ -> ());
    ]

(* ---------- untaint ---------- *)

let untaint_tests =
  List.map
    (fun mode ->
      tc
        (Printf.sprintf "untaint clears the value tag (%s)" (Mode.to_string mode))
        (fun () ->
          let prog =
            Util.main_returning ~locals:[ array "a" 8; array "b" 8; scalar "x" ]
              [
                store64 (v "a") (i 9);
                Ir.Expr (call "sys_taint_set" [ v "a"; i 8; i 1 ]);
                set "x" (call "untaint" [ load64 (v "a") ]);
                store64 (v "b") (v "x");
                ret ((call "sys_taint_chk" [ v "b"; i 8 ] *: i 100) +: v "x");
              ]
          in
          Util.check_i64 "clean, value preserved" 9L
            (Util.exit_code (Util.run_prog ~mode prog))))
    Util.all_modes

(* ---------- pointer policy ---------- *)

let propagate =
  { Shift_compiler.Compile.default_options with pointer_policy = Propagate_pointer_taint }

(* reads a value through a tainted pointer, then feeds the result to a
   string sink *)
let tainted_ptr_prog =
  Util.main_returning ~locals:[ array "slotbuf" 16; array "data" 16; scalar "p"; scalar "x" ]
    [
      Ir.Expr (call "strcpy" [ v "data"; str "payload" ]);
      store64 (v "slotbuf") (v "data");
      Ir.Expr (call "sys_taint_set" [ v "slotbuf"; i 8; i 1 ]);
      set "p" (load64 (v "slotbuf"));
      set "x" (load8 (v "p"));
      store8 (v "data" +: i 8) (v "x");
      ret ((call "sys_taint_chk" [ v "data" +: i 8; i 1 ] *: i 1000) +: v "x");
    ]

let pointer_policy_tests =
  [
    tc "default policy faults on a tainted pointer" (fun () ->
        match (Util.run_prog ~mode:Mode.shift_word tainted_ptr_prog).outcome with
        | Shift.Report.Alert a ->
            Alcotest.(check string) "L1" "L1" a.Shift_policy.Alert.policy
        | o -> Alcotest.failf "expected L1, got %a" Shift.Report.pp_outcome o);
    tc "propagate policy dereferences and taints the result" (fun () ->
        (* 1000 * (stored byte tainted) + 'p' *)
        Util.check_i64 "value read, result tainted"
          (Int64.of_int (1000 + Char.code 'p'))
          (Util.exit_code (Util.run_prog ~options:propagate ~mode:Mode.shift_word tainted_ptr_prog)));
    tc "propagate policy works at byte granularity" (fun () ->
        Util.check_i64 "byte too"
          (Int64.of_int (1000 + Char.code 'p'))
          (Util.exit_code (Util.run_prog ~options:propagate ~mode:Mode.shift_byte tainted_ptr_prog)));
    tc "propagate policy with the enhanced ISA" (fun () ->
        Util.check_i64 "enh"
          (Int64.of_int (1000 + Char.code 'p'))
          (Util.exit_code
             (Util.run_prog ~options:propagate
                ~mode:(Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh_both })
                tainted_ptr_prog)));
    tc "propagate: store through tainted pointer taints the location" (fun () ->
        let prog =
          Util.main_returning ~locals:[ array "slotbuf" 16; array "data" 16; scalar "p" ]
            [
              store64 (v "slotbuf") (v "data");
              Ir.Expr (call "sys_taint_set" [ v "slotbuf"; i 8; i 1 ]);
              set "p" (load64 (v "slotbuf"));
              store64 (v "p") (i 5);
              ret (call "sys_taint_chk" [ v "data"; i 8 ]);
            ]
        in
        Util.check_bool "location tainted" true
          (Util.exit_code (Util.run_prog ~options:propagate ~mode:Mode.shift_word prog) > 0L));
    tc "clean pointers are unaffected by the propagate policy" (fun () ->
        let prog =
          Util.main_returning ~locals:[ array "data" 16 ]
            [
              store64 (v "data") (i 11);
              ret ((call "sys_taint_chk" [ v "data"; i 8 ] *: i 100) +: load64 (v "data"));
            ]
        in
        Util.check_i64 "clean" 11L
          (Util.exit_code (Util.run_prog ~options:propagate ~mode:Mode.shift_word prog)));
  ]

let suites =
  [
    ("features.guard", guard_tests);
    ("features.fnptr", fnptr_tests);
    ("features.untaint", untaint_tests);
    ("features.pointer-policy", pointer_policy_tests);
  ]
