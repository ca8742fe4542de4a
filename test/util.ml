(* Shared helpers for the test suites. *)

let check_i64 msg expected actual = Alcotest.(check int64) msg expected actual
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f

(* Run a tiny guest program (with the runtime linked) and return its
   report. *)
let run_prog ?options ?policy ?setup ?(mode = Shift_compiler.Mode.Uninstrumented) prog =
  Shift.Session.run_image ?policy ?setup ~fuel:200_000_000
    (Shift.Session.build ?options ~mode prog)

let exit_code (r : Shift.Report.t) =
  match r.outcome with
  | Shift.Report.Exited code -> code
  | o -> Alcotest.failf "expected normal exit, got %a" Shift.Report.pp_outcome o

(* a main() that returns the value of an expression built from the body *)
let main_returning ?(globals = []) ?(locals = []) body =
  { Ir.globals; funcs = [ Build.func "main" ~params:[] ~locals body ] }

let all_modes =
  [
    Shift_compiler.Mode.Uninstrumented;
    Shift_compiler.Mode.shift_word;
    Shift_compiler.Mode.shift_byte;
    Shift_compiler.Mode.Shift
      { granularity = Shift_mem.Granularity.Word; enh = Shift_compiler.Mode.enh1 };
    Shift_compiler.Mode.Shift
      { granularity = Shift_mem.Granularity.Byte; enh = Shift_compiler.Mode.enh_both };
    Shift_compiler.Mode.Software_dbt { granularity = Shift_mem.Granularity.Word };
  ]
