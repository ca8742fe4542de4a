(* Quickstart: write a tiny guest program in the IR, run it under SHIFT
   and watch taint flow from a file into a pointer dereference.

   Run with: dune exec examples/quickstart.exe *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module World = Shift_os.World

(* A program with a classic bug: it reads 8 bytes from a file and uses
   them as an address. *)
let program =
  {
    Ir.globals = [];
    funcs =
      [
        func "main" ~params:[] ~locals:[ scalar "fd"; array "buf" 16; scalar "p" ]
          [
            set "fd" (call "sys_open" [ str "config.bin" ]);
            when_ (v "fd" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 16 ]);
            ecall "println" [ str "config loaded, dereferencing stored pointer..." ];
            set "p" (load64 (v "buf"));
            ret (load64 (v "p"));
          ];
      ];
  }

(* the "attacker-controlled" file: its first 8 bytes are a pointer *)
let config =
  let b = Buffer.create 16 in
  Buffer.add_int64_le b (Shift_mem.Addr.in_region 1 0x10000L);
  Buffer.add_string b "padding!";
  Buffer.contents b

let policy = { Policy.default with Policy.taint_files = true }

let run mode =
  let report =
    Shift.Session.exec
      ~config:
        (Shift.Session.Config.make ~policy
           ~setup:(fun w -> World.add_file w "config.bin" config)
           ())
      (Shift.Session.build ~mode program)
  in
  Format.printf "  mode %-12s -> %a  (%d instructions, %d cycles)@."
    (Mode.to_string mode) Shift.Report.pp_outcome report.Shift.Report.outcome
    report.Shift.Report.stats.Shift_machine.Stats.instructions
    report.Shift.Report.stats.Shift_machine.Stats.cycles

let () =
  print_endline "The guest dereferences a pointer it read from an untrusted file.";
  print_endline "Uninstrumented, the bug is invisible; under SHIFT the loaded";
  print_endline "pointer carries a NaT bit and policy L1 stops the dereference:";
  print_newline ();
  List.iter run
    [ Mode.Uninstrumented; Mode.shift_word; Mode.shift_byte;
      Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh_both } ]
