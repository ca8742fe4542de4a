(* Table 1 (policy catalogue) and Table 2 (security evaluation). *)

open Common
module Case = Shift_attacks.Attack_case
module J = Shift.Results

let policies =
  [
    ("H1", "Directory Traversal", "tainted data cannot be an absolute file path");
    ("H2", "Directory Traversal", "tainted path cannot traverse out of the document root");
    ("H3", "SQL Injection", "no tainted SQL meta-characters in a query");
    ("H4", "Command Injection", "no tainted shell meta-characters in system() arguments");
    ("H5", "Cross Site Scripting", "no tainted <script> tag in HTML output");
    ("L1", "Tainted pointer dereference", "tainted data cannot be a load address");
    ("L2", "Format string vulnerability", "tainted data cannot be a store address");
    ("L3", "Critical CPU state", "tainted data cannot enter control-transfer registers");
  ]

let table1 () =
  header "Table 1: security policies in SHIFT";
  table
    ~columns:[ "Policy"; "Attacks to detect"; "Description" ]
    (List.map (fun (p, a, d) -> [ p; a; d ]) policies);
  note "all eight policies are implemented; the low-level ones are the meaning";
  note "assigned to NaT-consumption faults, the high-level ones run at OS sinks.";
  J.Obj
    [
      ( "policies",
        J.List
          (List.map
             (fun (p, a, d) ->
               J.Obj
                 [
                   ("policy", J.String p);
                   ("attacks", J.String a);
                   ("description", J.String d);
                 ])
             policies) );
    ]

let run_case (c : Case.t) mode input =
  Shift.Session.exec
    ~config:
      (Shift.Session.Config.make ~policy:c.Case.policy ~setup:input
         ~fuel:200_000_000 ())
    (Shift.Session.build ~mode c.Case.program)

let outcome_name (r : Shift.Report.t) =
  match r.Shift.Report.outcome with
  | Shift.Report.Alert a -> a.Shift_policy.Alert.policy
  | Shift.Report.Exited _ -> "clean"
  | Shift.Report.Fault f -> "fault:" ^ Shift_machine.Fault.to_string f
  | Shift.Report.Timeout -> "timeout"

let table2 () =
  header "Table 2: security evaluation (benign run, then exploit, at both granularities)";
  (* each case is one pool item: its five runs share nothing with the
     other cases, and per-case granularity keeps the rows in order *)
  let outcomes =
    Pool.map
      (fun (c : Case.t) ->
        ( outcome_name (run_case c word c.Case.benign),
          outcome_name (run_case c byte c.Case.benign),
          outcome_name (run_case c word c.Case.exploit),
          outcome_name (run_case c byte c.Case.exploit),
          outcome_name (run_case c Common.Mode.Uninstrumented c.Case.exploit) ))
      Shift_attacks.Attacks.all
  in
  let cases = List.combine Shift_attacks.Attacks.all outcomes in
  let rows =
    List.map
      (fun ((c : Case.t), (benign_w, benign_b, exploit_w, exploit_b, unprot)) ->
        let detected =
          if
            exploit_w = c.Case.expected_policy
            && exploit_b = c.Case.expected_policy
            && benign_w = "clean" && benign_b = "clean"
          then "Yes"
          else
            Printf.sprintf "NO (benign %s/%s exploit %s/%s)" benign_w benign_b exploit_w
              exploit_b
        in
        [
          c.Case.cve;
          c.Case.program_name;
          c.Case.language;
          c.Case.attack_type;
          c.Case.detection_policies;
          detected;
          (if unprot = "clean" then "succeeds" else "!" ^ unprot);
        ])
      cases
  in
  table
    ~columns:
      [ "CVE#"; "Program"; "Lang"; "Attack Type"; "Detection Policies"; "Detected?";
        "Without SHIFT" ]
    rows;
  note "paper: all eight detected, no false positives or negatives; without";
  note "SHIFT every attack succeeds.  \"Detected?\" above requires clean benign";
  note "runs and the listed policy firing on the exploit at byte AND word level.";
  Printf.printf "\n  Extension cases (Table-1 policies without a Table-2 row):\n";
  let ext_cases =
    List.concat_map
      (fun mode ->
        List.map (fun c -> (mode, c)) (Shift_attacks.Attacks.extended ~mode))
      [ word; byte ]
  in
  let ext_outcomes =
    Pool.map
      (fun (mode, (c : Case.t)) ->
        ( outcome_name (run_case c mode c.Case.benign),
          outcome_name (run_case c mode c.Case.exploit) ))
      ext_cases
  in
  let ext = List.combine ext_cases ext_outcomes in
  let ext_rows =
    List.map
      (fun ((mode, (c : Case.t)), (benign, exploit)) ->
        [
          c.Case.cve;
          c.Case.program_name;
          c.Case.attack_type;
          Common.Mode.to_string mode;
          (if benign = "clean" && exploit = c.Case.expected_policy then "Yes"
           else Printf.sprintf "NO (benign %s, exploit %s)" benign exploit);
        ])
      ext
  in
  table ~columns:[ "id"; "Program"; "Attack Type"; "mode"; "Detected?" ] ext_rows;
  let case_json ((c : Case.t), (benign_w, benign_b, exploit_w, exploit_b, unprot)) =
    J.Obj
      [
        ("cve", J.String c.Case.cve);
        ("program", J.String c.Case.program_name);
        ("attack_type", J.String c.Case.attack_type);
        ("expected_policy", J.String c.Case.expected_policy);
        ("benign_word", J.String benign_w);
        ("benign_byte", J.String benign_b);
        ("exploit_word", J.String exploit_w);
        ("exploit_byte", J.String exploit_b);
        ("unprotected", J.String unprot);
        ( "detected",
          J.Bool
            (exploit_w = c.Case.expected_policy
            && exploit_b = c.Case.expected_policy
            && benign_w = "clean" && benign_b = "clean") );
      ]
  in
  let ext_json ((mode, (c : Case.t)), (benign, exploit)) =
    J.Obj
      [
        ("id", J.String c.Case.cve);
        ("program", J.String c.Case.program_name);
        ("mode", J.String (Common.Mode.to_string mode));
        ("benign", J.String benign);
        ("exploit", J.String exploit);
        ("detected", J.Bool (benign = "clean" && exploit = c.Case.expected_policy));
      ]
  in
  J.Obj
    [
      ("cases", J.List (List.map case_json cases));
      ("extension_cases", J.List (List.map ext_json ext));
    ]
