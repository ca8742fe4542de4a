(* Tracing: watch tainted data move through the machine with Flowtrace.

   Flowtrace is the observability layer over the NaT-bit taint
   machinery: every taint birth, register-to-register propagation,
   store, purge and check lands as a structured event in a ring
   buffer, and sink alerts carry a provenance chain naming the input
   bytes that reached them.

   Run with: dune exec examples/tracing.exe *)

open Shift_isa
module Cpu = Shift_machine.Cpu
module Flowtrace = Shift_machine.Flowtrace

(* -------- part 1: the deferred-exception lifecycle, hand-written ---- *)

let m ?qp op = Program.I (Instr.mk ?qp op)

let demo_program =
  Program.assemble
    [
      (* conjure a NaT the Figure-5 way: speculative load from a faked
         invalid address *)
      m (Instr.Movi (5, Int64.shift_left 1L 45));
      m (Instr.Ld { width = Instr.W8; dst = 5; addr = 5; spec = true; fill = false });
      (* propagate it through computation *)
      m (Instr.Movi (6, 41L));
      m (Instr.Arith (Instr.Add, 7, 6, Instr.R 5));
      (* test it, then purge it with the xor idiom *)
      m (Instr.Tnat { pt = 1; pf = 2; src = 7 });
      m (Instr.Arith (Instr.Xor, 7, 7, Instr.R 7));
      m (Instr.Tnat { pt = 3; pf = 4; src = 7 });
      m Instr.Halt;
    ]

let trace_nat () =
  print_endline "== NaT lifecycle as Flowtrace events ==";
  let cpu = Cpu.create demo_program in
  cpu.Cpu.flowtrace <- Flowtrace.create ();
  (match Cpu.run cpu with
  | Cpu.Exited _ -> ()
  | _ -> prerr_endline "unexpected outcome");
  let ft = cpu.Cpu.flowtrace in
  List.iter (Format.printf "  %a@." Flowtrace.pp_event) (Flowtrace.events ft);
  Format.printf "  %a@." Flowtrace.pp_summary (Flowtrace.summary ft);
  Format.printf
    "  final predicates: p1(tainted before xor)=%b p3(after xor)=%b@.@."
    cpu.Cpu.preds.(1) cpu.Cpu.preds.(3)

(* -------- part 2: an attack case, traced end to end ----------------- *)

let trace_attack () =
  print_endline "== GNU Tar directory traversal, traced end to end ==";
  match Shift_attacks.Attacks.find "gnu tar" with
  | None -> prerr_endline "tar case missing"
  | Some c ->
      let open Shift_attacks.Attack_case in
      let config =
        Shift.Session.Config.make ~policy:c.policy ~setup:c.exploit
          ~trace:{ Shift.Flowtrace.capacity = 64; only = None }
          ()
      in
      let image = Shift.Session.build ~mode:Shift.Mode.shift_byte c.program in
      let live = Shift.Session.start ~config image in
      (match Shift.Session.advance live ~budget:max_int with
      | `Finished _ | `Yielded -> ());
      let report = Shift.Session.report live in
      (match Shift.Session.flowtrace live with
      | Some ft -> Format.printf "%a@." Shift.Flow.pp ft
      | None -> ());
      (match Shift.Report.alert report with
      | Some a ->
          Format.printf "  alert %s, provenance chain:@." a.Shift.Alert.policy;
          List.iter (Format.printf "    %s@.") a.Shift.Alert.chain
      | None -> print_endline "  no alert (unexpected)");
      print_newline ()

(* -------- part 3: what the SHIFT pass inserts ----------------------- *)

open Build
open Build.Infix

let tiny =
  {
    Ir.globals = [];
    funcs =
      [
        func "main" ~params:[] ~locals:[ array "a" 8; scalar "x" ]
          [
            set "x" (load64 (v "a"));
            store64 (v "a") (v "x" +: i 1);
            ret (v "x");
          ];
      ];
  }

let show_listing mode =
  let image = Shift.Session.build ~with_runtime:false ~mode tiny in
  Format.printf "== main() compiled with mode %s (%d instructions) ==@."
    (Shift_compiler.Mode.to_string mode)
    (Shift_compiler.Image.code_size image);
  Format.printf "%a@." Program.pp_listing image.Shift_compiler.Image.program

let () =
  trace_nat ();
  trace_attack ();
  show_listing Shift_compiler.Mode.Uninstrumented;
  show_listing Shift_compiler.Mode.shift_word
