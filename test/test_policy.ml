module Policy = Shift_policy.Policy
module Alert = Shift_policy.Alert

let tc = Util.tc

let policy_name = function None -> "none" | Some (a : Alert.t) -> a.Alert.policy

let check_policy msg expected actual =
  Alcotest.(check string) msg expected (policy_name actual)

let norm_tests =
  [
    tc "normalize_path" (fun () ->
        let cases =
          [
            ("/a/b/c", "/a/b/c");
            ("/a/./b", "/a/b");
            ("/a/b/../c", "/a/c");
            ("a/../../b", "../b");
            ("/../x", "/x");
            ("a//b/", "a/b");
            (".", ".");
            ("..", "..");
            ("/", "/");
          ]
        in
        List.iter
          (fun (input, expected) ->
            Alcotest.(check string) input expected (Policy.normalize_path input))
          cases);
  ]

let h2_policy = { Policy.default with h2 = Some "/var/www" }
let h1_policy = { Policy.default with h1 = true }

let open_tests =
  [
    tc "H1 fires on tainted absolute path" (fun () ->
        check_policy "h1" "H1"
          (Policy.check_open h1_policy ~path:"/etc/passwd" ~tainted:[ 0; 1 ]));
    tc "H1 quiet on clean absolute path" (fun () ->
        check_policy "clean" "none" (Policy.check_open h1_policy ~path:"/etc/passwd" ~tainted:[]));
    tc "H1 quiet on tainted relative path" (fun () ->
        check_policy "relative" "none"
          (Policy.check_open h1_policy ~path:"notes.txt" ~tainted:[ 0 ]));
    tc "H2 fires on traversal out of the document root" (fun () ->
        check_policy "h2" "H2"
          (Policy.check_open h2_policy ~path:"../../etc/passwd" ~tainted:[ 0; 1; 2 ]));
    tc "H2 quiet inside the document root" (fun () ->
        check_policy "inside" "none"
          (Policy.check_open h2_policy ~path:"pages/index.html" ~tainted:[ 3 ]));
    tc "H2 quiet on dotdot that stays inside" (fun () ->
        check_policy "stays" "none"
          (Policy.check_open h2_policy ~path:"a/../index.html" ~tainted:[ 1 ]));
    tc "H2 quiet without taint" (fun () ->
        check_policy "clean" "none"
          (Policy.check_open h2_policy ~path:"../../etc/passwd" ~tainted:[]));
  ]

let sink_tests =
  let p = Policy.all_on ~document_root:"/www" in
  [
    tc "H4 fires on tainted shell metacharacter" (fun () ->
        check_policy "h4" "H4"
          (Policy.check_system p ~cmd:"ls; rm -rf /" ~tainted:[ 2; 3; 4 ]));
    tc "H4 quiet when metacharacters are program-supplied" (fun () ->
        check_policy "clean meta" "none"
          (Policy.check_system p ~cmd:"ls; rm" ~tainted:[ 0; 1 ]));
    tc "H3 fires on tainted quote" (fun () ->
        check_policy "h3" "H3"
          (Policy.check_sql p ~query:"SELECT * FROM t WHERE n='x' OR '1'='1'"
             ~tainted:(List.init 16 (fun k -> 23 + k))));
    tc "H3 fires on tainted comment" (fun () ->
        check_policy "comment" "H3"
          (Policy.check_sql p ~query:"SELECT 1 -- hidden" ~tainted:[ 9; 10 ]));
    tc "H3 quiet on benign tainted text" (fun () ->
        check_policy "benign" "none"
          (Policy.check_sql p ~query:"SELECT * FROM t WHERE n='bob'" ~tainted:[ 25; 26; 27 ]));
    tc "H5 fires on tainted script tag" (fun () ->
        check_policy "h5" "H5"
          (Policy.check_html p ~html:"<p>hi</p><script>evil()</script>"
             ~tainted:(List.init 23 (fun k -> 9 + k))));
    tc "H5 matches case-insensitively" (fun () ->
        check_policy "case" "H5"
          (Policy.check_html p ~html:"<ScRiPt>" ~tainted:[ 0; 1; 2; 3; 4; 5; 6; 7 ]));
    tc "H5 quiet on program-authored script tag" (fun () ->
        check_policy "own tag" "none"
          (Policy.check_html p ~html:"<script>menu()</script><b>name</b>" ~tainted:[ 26; 27 ]));
    tc "disabled policies never fire" (fun () ->
        let off = Policy.default in
        check_policy "h3 off" "none" (Policy.check_sql off ~query:"'" ~tainted:[ 0 ]);
        check_policy "h4 off" "none" (Policy.check_system off ~cmd:";" ~tainted:[ 0 ]);
        check_policy "h5 off" "none"
          (Policy.check_html off ~html:"<script>" ~tainted:[ 0; 1 ]));
  ]

let fault_tests =
  [
    tc "fault mapping covers L1-L3" (fun () ->
        check_policy "l1" "L1" (Policy.alert_of_fault "load address");
        check_policy "l2" "L2" (Policy.alert_of_fault "store address");
        check_policy "l2-val" "L2" (Policy.alert_of_fault "store value");
        check_policy "l3-br" "L3" (Policy.alert_of_fault "branch target");
        check_policy "l3-call" "L3" (Policy.alert_of_fault "call target");
        check_policy "other" "none" (Policy.alert_of_fault "nonsense"));
    tc "describe lists enabled policies" (fun () ->
        let lines = Policy.describe (Policy.all_on ~document_root:"/www") in
        Util.check_int "eight lines" 8 (List.length lines));
  ]

(* signature feedback: the maximal tainted fragment at the sink (the
   paper's intrusion-prevention-signature use case, §1) *)
let signature_tests =
  [
    tc "extract_signature finds the maximal tainted run" (fun () ->
        let s = "SELECT x WHERE id='0'OR'1'" in
        let tainted = List.init 8 (fun k -> 18 + k) in
        Alcotest.(check (option string))
          "fragment" (Some "'0'OR'1'")
          (Alert.extract_signature s ~tainted ~around:20));
    tc "extract_signature is None off the tainted run" (fun () ->
        Alcotest.(check (option string))
          "none" None
          (Alert.extract_signature "abcdef" ~tainted:[ 1; 2 ] ~around:4));
    tc "extract_signature at the string's edges" (fun () ->
        Alcotest.(check (option string))
          "run at position 0" (Some "ab")
          (Alert.extract_signature "abcdef" ~tainted:[ 0; 1 ] ~around:0);
        Alcotest.(check (option string))
          "run at the end" (Some "ef")
          (Alert.extract_signature "abcdef" ~tainted:[ 4; 5 ] ~around:5));
    tc "extract_signature snaps to an adjacent run only" (fun () ->
        (* around itself untainted: the run one position left or right
           is accepted, anything further is not *)
        Alcotest.(check (option string))
          "left neighbour" (Some "AA")
          (Alert.extract_signature "xxAAxyyyy" ~tainted:[ 2; 3 ] ~around:4);
        Alcotest.(check (option string))
          "right neighbour" (Some "BB")
          (Alert.extract_signature "xxxxxBBxx" ~tainted:[ 5; 6 ] ~around:4);
        Alcotest.(check (option string))
          "two away" None
          (Alert.extract_signature "xxAAxxxxx" ~tainted:[ 2; 3 ] ~around:5));
    tc "extract_signature on an empty string" (fun () ->
        Alcotest.(check (option string))
          "empty" None
          (Alert.extract_signature "" ~tainted:[ 0 ] ~around:0));
    tc "extract_signature clamps around to the string" (fun () ->
        Alcotest.(check (option string))
          "past the end" (Some "ef")
          (Alert.extract_signature "abcdef" ~tainted:[ 4; 5 ] ~around:100);
        Alcotest.(check (option string))
          "negative" (Some "ab")
          (Alert.extract_signature "abcdef" ~tainted:[ 0; 1 ] ~around:(-3)));
    tc "sink alerts carry the attacking fragment" (fun () ->
        let p = Policy.all_on ~document_root:"/www" in
        match
          Policy.check_sql p ~query:"SELECT 1 WHERE a='x' OR 'b'"
            ~tainted:(List.init 10 (fun k -> 17 + k))
        with
        | Some a ->
            Alcotest.(check (option string)) "signature" (Some "'x' OR 'b'")
              a.Alert.signature
        | None -> Alcotest.fail "expected H3");
    tc "end-to-end: the phpMyFAQ exploit yields its injection string" (fun () ->
        let c = List.nth Shift_attacks.Attacks.all 6 in
        let r =
          Shift.Session.exec
            ~config:
              (Shift.Session.Config.make ~policy:c.Shift_attacks.Attack_case.policy
                 ~setup:c.Shift_attacks.Attack_case.exploit ())
            (Shift.Session.build ~mode:Shift_compiler.Mode.shift_byte
               c.Shift_attacks.Attack_case.program)
        in
        match Shift.Report.alert r with
        | Some { Alert.signature = Some s; _ } ->
            Util.check_bool
              (Printf.sprintf "signature %S contains the injection" s)
              true
              (Str_exists.contains s "OR")
        | _ -> Alcotest.fail "expected an alert with a signature");
  ]

let suites =
  [
    ("policy.paths", norm_tests);
    ("policy.open", open_tests);
    ("policy.sinks", sink_tests);
    ("policy.faults", fault_tests);
    ("policy.signatures", signature_tests);
  ]
