(* Differential testing: random structured guest programs must behave
   identically under every compilation mode — instrumentation is
   semantically transparent, whatever the program does.

   Programs are generated from a PRNG seed: straight-line arithmetic
   over four scalars, bounded loops, byte/word stores into a scratch
   array with masked indices, taint-source calls sprinkled in.  The
   result folds the scalars and the array together, so divergence
   anywhere shows up in the exit code. *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode

let tc = Util.tc

let scalars = [| "x0"; "x1"; "x2"; "x3" |]

type gen = { rng : Random.State.t; mutable loops : int }

let pick g arr = arr.(Random.State.int g.rng (Array.length arr))
let chance g pct = Random.State.int g.rng 100 < pct

let rec gen_expr g depth =
  if depth = 0 || chance g 30 then
    if chance g 50 then i (Random.State.int g.rng 2000 - 1000) else v (pick g scalars)
  else
    match Random.State.int g.rng 10 with
    | 0 -> gen_expr g (depth - 1) +: gen_expr g (depth - 1)
    | 1 -> gen_expr g (depth - 1) -: gen_expr g (depth - 1)
    | 2 -> gen_expr g (depth - 1) *: gen_expr g (depth - 1)
    | 3 ->
        (* divisor forced nonzero *)
        gen_expr g (depth - 1) /: ((gen_expr g (depth - 1) &: i 15) +: i 1)
    | 4 -> gen_expr g (depth - 1) &: gen_expr g (depth - 1)
    | 5 -> gen_expr g (depth - 1) |: gen_expr g (depth - 1)
    | 6 -> gen_expr g (depth - 1) ^: gen_expr g (depth - 1)
    | 7 -> gen_expr g (depth - 1) <<: (gen_expr g (depth - 1) &: i 7)
    | 8 ->
        (* masked and untainted index: the bounds-check pattern, so a
           tainted value never becomes an address (which would be a
           legitimate detection, not a divergence) *)
        load64 (v "arr" +: (call "untaint" [ gen_expr g (depth - 1) &: i 7 ] *: i 8))
    | _ -> Ir.Binop ((if chance g 50 then Ir.Lt else Ir.Eq), gen_expr g (depth - 1), gen_expr g (depth - 1))

let rec gen_stmt g depth =
  match Random.State.int g.rng (if depth = 0 then 4 else 7) with
  | 0 | 1 -> [ set (pick g scalars) (gen_expr g 2) ]
  | 2 ->
      [ store64 (v "arr" +: (call "untaint" [ gen_expr g 2 &: i 7 ] *: i 8)) (gen_expr g 2) ]
  | 3 -> [ store8 (v "arr" +: call "untaint" [ gen_expr g 2 &: i 63 ]) (gen_expr g 2) ]
  | 4 ->
      [
        if_ (gen_expr g 2) (gen_block g (depth - 1)) (gen_block g (depth - 1));
      ]
  | 5 ->
      (* bounded loop over its own counter (sharing one would let an
         inner loop reset the outer's progress) *)
      let n = 1 + Random.State.int g.rng 6 in
      let counter = Printf.sprintf "k%d" g.loops in
      g.loops <- (g.loops + 1) mod 10;
      for_up counter (i 0) (i n) (gen_block g (depth - 1))
  | _ ->
      [
        ecall "sys_taint_set"
          [ v "arr" +: i (8 * Random.State.int g.rng 7);
            i (1 + Random.State.int g.rng 16);
            i (Random.State.int g.rng 2) ];
      ]

and gen_block g depth =
  List.concat (List.init (1 + Random.State.int g.rng 3) (fun _ -> gen_stmt g depth))

let gen_program seed =
  let g = { rng = Random.State.make [| seed |]; loops = 0 } in
  let inits =
    Array.to_list scalars
    |> List.map (fun x -> set x (i (Random.State.int g.rng 100)))
  in
  let body = List.concat (List.init 6 (fun _ -> gen_stmt g 2)) in
  let fold =
    [ set "x0" (v "x0" +: (v "x1" *: i 3) +: (v "x2" *: i 5) +: (v "x3" *: i 7)) ]
    @ for_up "k" (i 0) (i 64)
        [ set "x0" ((v "x0" *: i 31) +: load8 (v "arr" +: v "k")) ]
    @ [ ret (v "x0" &: i64 0x3fffffffL) ]
  in
  Util.main_returning
    ~locals:
      (array "arr" 64 :: scalar "k"
      :: List.init 10 (fun n -> scalar (Printf.sprintf "k%d" n))
      @ List.map scalar (Array.to_list scalars))
    (inits @ body @ fold)

let modes =
  [
    Mode.shift_word;
    Mode.shift_byte;
    Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh1 };
    Mode.Shift { granularity = Shift_mem.Granularity.Byte; enh = Mode.enh_both };
    Mode.Software_dbt { granularity = Shift_mem.Granularity.Word };
  ]

let differential_test =
  QCheck.Test.make ~count:60 ~name:"random programs agree across all modes"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = gen_program seed in
      let reference = Util.exit_code (Util.run_prog ~mode:Mode.Uninstrumented prog) in
      List.for_all
        (fun mode -> Util.exit_code (Util.run_prog ~mode prog) = reference)
        modes)

let determinism_test =
  QCheck.Test.make ~count:20 ~name:"random programs are cycle-deterministic"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = gen_program seed in
      let c1 = Shift.Report.cycles (Util.run_prog ~mode:Mode.shift_word prog) in
      let c2 = Shift.Report.cycles (Util.run_prog ~mode:Mode.shift_word prog) in
      c1 = c2)

let overhead_test =
  QCheck.Test.make ~count:20 ~name:"instrumentation never speeds programs up"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = gen_program seed in
      let base = Shift.Report.cycles (Util.run_prog ~mode:Mode.Uninstrumented prog) in
      let word = Shift.Report.cycles (Util.run_prog ~mode:Mode.shift_word prog) in
      word >= base)

let suites =
  [
    ( "random.differential",
      List.map QCheck_alcotest.to_alcotest
        [ differential_test; determinism_test; overhead_test ] );
  ]
