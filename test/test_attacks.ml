(* Security evaluation (paper Table 2): every attack is detected at
   both tracking granularities with the listed policy, benign inputs
   raise no false positives, and without SHIFT the attacks succeed. *)

module Mode = Shift_compiler.Mode
module Case = Shift_attacks.Attack_case

let tc = Util.tc

let run_case ?trace (c : Case.t) ~mode ~input =
  Shift.Session.exec
    ~config:
      (Shift.Session.Config.make ~policy:c.Case.policy ~setup:input
         ~fuel:200_000_000 ?trace ())
    (Shift.Session.build ~mode c.Case.program)

let granularities = [ Mode.shift_word; Mode.shift_byte ]

let benign_tests =
  List.concat_map
    (fun (c : Case.t) ->
      List.map
        (fun mode ->
          tc
            (Printf.sprintf "%s benign is clean (%s)" c.Case.program_name (Mode.to_string mode))
            (fun () ->
              let r = run_case c ~mode ~input:c.Case.benign in
              (match r.Shift.Report.outcome with
              | Shift.Report.Exited _ -> ()
              | o ->
                  Alcotest.failf "false positive or crash: %a" Shift.Report.pp_outcome o);
              Util.check_bool "no logged alerts" true (r.Shift.Report.logged = [])))
        granularities)
    Shift_attacks.Attacks.all

let exploit_tests =
  List.concat_map
    (fun (c : Case.t) ->
      List.map
        (fun mode ->
          tc
            (Printf.sprintf "%s exploit detected (%s)" c.Case.program_name (Mode.to_string mode))
            (fun () ->
              let r = run_case c ~mode ~input:c.Case.exploit in
              match r.Shift.Report.outcome with
              | Shift.Report.Alert a ->
                  Alcotest.(check string)
                    "policy" c.Case.expected_policy a.Shift_policy.Alert.policy
              | o -> Alcotest.failf "undetected: %a" Shift.Report.pp_outcome o))
        granularities)
    Shift_attacks.Attacks.all

let unprotected_tests =
  List.map
    (fun (c : Case.t) ->
      tc
        (Printf.sprintf "%s exploit succeeds without SHIFT" c.Case.program_name)
        (fun () ->
          let r = run_case c ~mode:Mode.Uninstrumented ~input:c.Case.exploit in
          match r.Shift.Report.outcome with
          | Shift.Report.Exited _ -> ()
          | o -> Alcotest.failf "expected the attack to succeed, got %a" Shift.Report.pp_outcome o))
    Shift_attacks.Attacks.all

let qwik_tests =
  let module Q = Shift_attacks.Qwik_smtpd in
  let run ~mode helo =
    Shift.Session.exec
      ~config:
        (Shift.Session.Config.make ~policy:Shift_policy.Policy.default
           ~setup:(fun w -> Shift_os.World.queue_request w helo)
           ~fuel:200_000_000 ())
      (Shift.Session.build ~mode Q.program)
  in
  [
    tc "qwik-smtpd benign HELO is accepted" (fun () ->
        let r = run ~mode:Mode.shift_word Q.benign_helo in
        Util.check_i64 "clean exit" 0L (Util.exit_code r);
        Util.check_bool "relay denied" true
          (Str_exists.contains r.Shift.Report.output "550"));
    tc "qwik-smtpd overflow is caught by the Figure-1 rule" (fun () ->
        let r = run ~mode:Mode.shift_word Q.exploit_helo in
        Util.check_i64 "alert path" 255L (Util.exit_code r);
        Util.check_bool "alert printed" true
          (Str_exists.contains r.Shift.Report.output "ALERT"));
    tc "qwik-smtpd overflow succeeds without SHIFT" (fun () ->
        let r = run ~mode:Mode.Uninstrumented Q.exploit_helo in
        Util.check_i64 "relay granted" 0L (Util.exit_code r);
        Util.check_bool "relaying" true (Str_exists.contains r.Shift.Report.output "250"));
  ]

(* extension cases: H4 command injection and L3 control-flow hijack *)
let extended_tests =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun (c : Case.t) ->
          [
            tc
              (Printf.sprintf "%s benign is clean (%s)" c.Case.program_name
                 (Mode.to_string mode))
              (fun () ->
                match (run_case c ~mode ~input:c.Case.benign).outcome with
                | Shift.Report.Exited _ -> ()
                | o -> Alcotest.failf "false positive: %a" Shift.Report.pp_outcome o);
            tc
              (Printf.sprintf "%s exploit detected (%s)" c.Case.program_name
                 (Mode.to_string mode))
              (fun () ->
                match (run_case c ~mode ~input:c.Case.exploit).outcome with
                | Shift.Report.Alert a ->
                    Alcotest.(check string)
                      "policy" c.Case.expected_policy a.Shift_policy.Alert.policy
                | o -> Alcotest.failf "undetected: %a" Shift.Report.pp_outcome o);
          ])
        (Shift_attacks.Attacks.extended ~mode))
    granularities
  @ [
      tc "plugin-host hijack reaches the backdoor without SHIFT" (fun () ->
          let mode = Mode.Uninstrumented in
          let c = List.nth (Shift_attacks.Attacks.extended ~mode) 1 in
          let r = run_case c ~mode ~input:c.Case.exploit in
          Util.check_i64 "backdoor return value" 99L (Util.exit_code r);
          Util.check_bool "backdoor output" true
            (Str_exists.contains r.Shift.Report.output "PWNED"));
      tc "plugin-host benign dispatch works under SHIFT" (fun () ->
          let c = List.nth (Shift_attacks.Attacks.extended ~mode:Mode.shift_word) 1 in
          let r = run_case c ~mode:Mode.shift_word ~input:c.Case.benign in
          Util.check_i64 "handler ran" 10L (Util.exit_code r);
          Util.check_bool "status output" true
            (Str_exists.contains r.Shift.Report.output "status: ok"));
    ]

(* cross-process scenarios: the exploit must be detected in the forked
   (and exec'd) child with the alert naming that process, benign input
   stays clean, and the chain spans the fork/exec/pipe hops back to the
   parent's input bytes *)
let multiproc_tests =
  let contains = Str_exists.contains in
  List.concat_map
    (fun (c : Case.t) ->
      List.map
        (fun mode ->
          tc
            (Printf.sprintf "%s benign is clean (%s)" c.Case.program_name
               (Mode.to_string mode))
            (fun () ->
              let r = Case.run c ~mode ~input:c.Case.benign in
              (match r.Shift.Report.outcome with
              | Shift.Report.Exited code -> Util.check_i64 "clean exit" 0L code
              | o ->
                  Alcotest.failf "false positive or crash: %a"
                    Shift.Report.pp_outcome o);
              Util.check_bool "no logged alerts" true (r.Shift.Report.logged = [])))
        granularities
      @ List.map
          (fun mode ->
            tc
              (Printf.sprintf "%s exploit detected in the child (%s)"
                 c.Case.program_name (Mode.to_string mode))
              (fun () ->
                let r = Case.run c ~mode ~input:c.Case.exploit in
                match r.Shift.Report.outcome with
                | Shift.Report.Alert a ->
                    Alcotest.(check string)
                      "policy" c.Case.expected_policy a.Shift_policy.Alert.policy;
                    (* the alert names the process it fired in: the
                       forked child, not pid 1 *)
                    Util.check_bool "alert names pid 2" true
                      (contains a.Shift_policy.Alert.message "[pid 2, ")
                | o -> Alcotest.failf "undetected: %a" Shift.Report.pp_outcome o))
          granularities
      @ [
          tc
            (Printf.sprintf "%s exploit succeeds without SHIFT"
               c.Case.program_name)
            (fun () ->
              let r = Case.run c ~mode:Mode.Uninstrumented ~input:c.Case.exploit in
              match r.Shift.Report.outcome with
              | Shift.Report.Exited _ -> ()
              | o ->
                  Alcotest.failf "expected the attack to succeed, got %a"
                    Shift.Report.pp_outcome o);
          tc
            (Printf.sprintf "%s chain spans fork/exec/pipe" c.Case.program_name)
            (fun () ->
              let channel, lo, hi =
                match c.Case.provenance with
                | Some p -> p
                | None -> Alcotest.fail "multiproc case must declare provenance"
              in
              let r =
                Case.run c ~mode:Mode.shift_byte
                  ~trace:Shift_machine.Flowtrace.default_options
                  ~input:c.Case.exploit
              in
              match Shift.Report.alert r with
              | None -> Alcotest.fail "expected an alert"
              | Some a ->
                  let chain = a.Shift_policy.Alert.chain in
                  let input_hop =
                    Printf.sprintf "input %s[%d..%d] via " channel lo hi
                  in
                  Util.check_bool
                    (Printf.sprintf "chain has %S hop naming pid 1" input_hop)
                    true
                    (List.exists
                       (fun h ->
                         String.length h >= String.length input_hop
                         && String.sub h 0 (String.length input_hop) = input_hop
                         && contains h "(pid 1, ")
                       chain);
                  (* the cross-process hop: exec argv or a pipe transfer,
                     recorded in the child *)
                  Util.check_bool "chain has a cross-process hop" true
                    (List.exists
                       (fun h ->
                         contains h "exec argv (pid 2, "
                         || contains h "-> pid 2, ")
                       chain);
                  Util.check_bool "chain ends at the child's sink" true
                    (match List.rev chain with
                    | last :: _ ->
                        contains last
                          (Printf.sprintf "sink %s via " c.Case.expected_policy)
                        && contains last "(pid 2, "
                    | [] -> false));
        ])
    Shift_attacks.Attacks.multiproc

(* cases that declare an expected provenance span: run them traced at
   byte granularity and check the alert's chain names exactly the
   attacker-controlled input bytes *)
let provenance_tests =
  List.filter_map
    (fun (c : Case.t) ->
      match c.Case.provenance with
      | None -> None
      | Some (channel, lo, hi) ->
          Some
            (tc
               (Printf.sprintf "%s chain names input bytes %d..%d"
                  c.Case.program_name lo hi)
               (fun () ->
                 let r =
                   run_case ~trace:Shift_machine.Flowtrace.default_options c
                     ~mode:Mode.shift_byte ~input:c.Case.exploit
                 in
                 match Shift.Report.alert r with
                 | Some a ->
                     let input_hop =
                       Printf.sprintf "input %s[%d..%d] via " channel lo hi
                     in
                     Util.check_bool
                       (Printf.sprintf "chain has %S hop" input_hop)
                       true
                       (List.exists
                          (fun h ->
                            String.length h >= String.length input_hop
                            && String.sub h 0 (String.length input_hop)
                               = input_hop)
                          a.Shift_policy.Alert.chain);
                     Util.check_bool "chain ends at the sink" true
                       (match List.rev a.Shift_policy.Alert.chain with
                       | last :: _ ->
                           Str_exists.contains last
                             (Printf.sprintf "sink %s via "
                                c.Case.expected_policy)
                       | [] -> false);
                     Util.check_bool "flow summary present" true
                       (r.Shift.Report.flow <> None)
                 | None -> Alcotest.fail "expected an alert")))
    Shift_attacks.Attacks.all

(* the catalogue's attack path: what [shiftc attack], its client twin
   and the daemon all run *)
let resolve_attack ?(mode = Mode.shift_word) ?(backend = Shift.Backend.Nat) ?(benign = false)
    case =
  Shift_catalog.Catalog.standard
    (Shift.Protocol.Attack { case; mode; benign; superblocks = true; backend })

let outcome_of_job = function
  | Ok (Shift.Serve.Job job) -> (
      match Shift.Fleet.step job with
      | Shift.Fleet.Done r -> (
          match r.Shift.Report.outcome with
          | Shift.Report.Exited code -> Printf.sprintf "exited(%Ld)" code
          | Shift.Report.Alert a -> "[" ^ a.Shift_policy.Alert.policy ^ "]"
          | o -> Format.asprintf "%a" Shift.Report.pp_outcome o)
      | _ -> Alcotest.fail "the job did not finish")
  | Ok _ -> Alcotest.fail "an attack request resolved to other work"
  | Error e -> Alcotest.fail e

(* a case's benign and exploit outcome in every backend x mode cell of
   the catalogue; a cell it refuses for want of one address space reads
   "refused" *)
let outcome_grid case =
  List.concat_map
    (fun backend ->
      List.map
        (fun (label, mode) ->
          let cell benign =
            match resolve_attack ~mode ~backend ~benign case with
            | Error e when Str_exists.contains e "single address space" -> "refused"
            | job -> outcome_of_job job
          in
          (Shift.Backend.to_string backend ^ "/" ^ label, cell true, cell false))
        [ ("word", Mode.shift_word); ("byte", Mode.shift_byte); ("none", Mode.Uninstrumented) ])
    [ Shift.Backend.Nat; Shift.Backend.Coproc; Shift.Backend.Off ]

let catalogue_tests =
  [
    (* the registry names handler addresses of the image that runs, so
       the benign dispatch works under every mode and backend, and the
       hijack is stopped wherever taint is tracked *)
    tc "plugin-host registry addresses follow the mode and backend" (fun () ->
        let expected =
          List.map
            (fun (cell, exploit) -> (cell, "exited(10)", exploit))
            [
              ("nat/word", "[L3]"); ("nat/byte", "[L3]"); ("nat/none", "exited(99)");
              ("coproc/word", "[L3]"); ("coproc/byte", "[L3]"); ("coproc/none", "[L3]");
              ("none/word", "exited(99)"); ("none/byte", "exited(99)"); ("none/none", "exited(99)");
            ]
        in
        Alcotest.(check (list (triple string string string)))
          "benign and exploit outcome per backend/mode" expected (outcome_grid "plugin-host"));
    (* the tag coprocessor binds one address space: a case that forks is
       refused under it, with the reason, and runs under every other
       backend and mode *)
    tc "multi-process cases are refused under coproc, run elsewhere" (fun () ->
        List.iter
          (fun (case, alert) ->
            let expected =
              List.map
                (fun (cell, exploit) ->
                  (cell, (if exploit = "refused" then exploit else "exited(0)"), exploit))
                [
                  ("nat/word", alert); ("nat/byte", alert); ("nat/none", "exited(0)");
                  ("coproc/word", "refused"); ("coproc/byte", "refused"); ("coproc/none", "refused");
                  ("none/word", "exited(0)"); ("none/byte", "exited(0)"); ("none/none", "exited(0)");
                ]
            in
            Alcotest.(check (list (triple string string string)))
              (case ^ ": benign and exploit outcome per backend/mode")
              expected (outcome_grid case))
          [ ("cgi-shell", "[H4]"); ("tar|gzip", "[H2]") ]);
    tc "every case find lists resolves; an unknown name lists them all" (fun () ->
        let listed =
          List.map
            (fun (c : Case.t) -> c.Case.program_name)
            (Shift_attacks.Attacks.findable Mode.shift_word)
        in
        List.iter
          (fun name ->
            match resolve_attack name with
            | Ok (Shift.Serve.Job job) ->
                Util.check_string "resolved case" name (Shift.Fleet.name job)
            | Ok _ -> Alcotest.fail "an attack request resolved to other work"
            | Error e -> Alcotest.fail e)
          listed;
        match resolve_attack "no-such-case" with
        | Ok _ -> Alcotest.fail "an unknown name resolved"
        | Error e ->
            List.iter
              (fun name -> Util.check_bool ("error names " ^ name) true (Str_exists.contains e name))
              listed);
  ]

let suites =
  [
    ("attacks.benign", benign_tests);
    ("attacks.exploits", exploit_tests);
    ("attacks.unprotected", unprotected_tests);
    ("attacks.qwik-smtpd", qwik_tests);
    ("attacks.extended", extended_tests);
    ("attacks.multiproc", multiproc_tests);
    ("attacks.provenance", provenance_tests);
    ("attacks.catalogue", catalogue_tests);
  ]
