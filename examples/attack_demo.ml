(* The paper's Figure-1 walk-through: the qwik-smtpd 0.3 buffer
   overflow, exploited with and without SHIFT, plus the full Table-2
   attack suite.

   Run with: dune exec examples/attack_demo.exe *)

module Mode = Shift_compiler.Mode
module Q = Shift_attacks.Qwik_smtpd
module Case = Shift_attacks.Attack_case

let run_qwik ~mode helo =
  Shift.Session.exec
    ~config:
      (Shift.Session.Config.make ~policy:Shift_policy.Policy.default
         ~setup:(fun w -> Shift_os.World.queue_request w helo)
         ())
    (Shift.Session.build ~mode Q.program)

let show title (r : Shift.Report.t) =
  Format.printf "  %-42s %a@." title Shift.Report.pp_outcome r.Shift.Report.outcome;
  String.split_on_char '\n' (String.trim r.Shift.Report.output)
  |> List.iter (fun line -> if line <> "" then Format.printf "      server: %s@." line)

let () =
  print_endline "== qwik-smtpd 0.3 (paper Figure 1) ==";
  print_endline "clienthelo[32] sits right below localip[64]; HELO is copied with";
  print_endline "an unchecked strcpy.  A long argument rewrites localip so the";
  print_endline "relay check compares attacker data against attacker data.";
  print_newline ();
  show "benign HELO, with SHIFT:" (run_qwik ~mode:Mode.shift_word Q.benign_helo);
  show "overflowing HELO, no SHIFT:" (run_qwik ~mode:Mode.Uninstrumented Q.exploit_helo);
  show "overflowing HELO, with SHIFT:" (run_qwik ~mode:Mode.shift_word Q.exploit_helo);
  print_newline ();
  print_endline "== the Table-2 suite, exploits under SHIFT (word level) ==";
  List.iter
    (fun (c : Case.t) ->
      let r =
        Shift.Session.exec
          ~config:
            (Shift.Session.Config.make ~policy:c.Case.policy
               ~setup:c.Case.exploit ())
          (Shift.Session.build ~mode:Mode.shift_word c.Case.program)
      in
      Format.printf "  %-22s %-22s -> %a@." c.Case.program_name c.Case.attack_type
        Shift.Report.pp_outcome r.Shift.Report.outcome)
    Shift_attacks.Attacks.all
