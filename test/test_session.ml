open Build
open Build.Infix
module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy

let tc = Util.tc

(* End-to-end detection: a program that loads through a pointer value it
   obtained from tainted input.  Under SHIFT the pointer register
   carries a NaT bit and the dereference trips policy L1; uninstrumented
   it sails through. *)
let tainted_pointer_prog =
  Util.main_returning ~locals:[ array "input" 16; scalar "p" ]
    [
      (* a "network-supplied" pointer value *)
      store64 (v "input") (i64 (Shift_mem.Addr.in_region 1 0x10000L));
      Ir.Expr (call "sys_taint_set" [ v "input"; i 8; i 1 ]);
      set "p" (load64 (v "input"));
      ret (load64 (v "p"));
    ]

let tainted_store_prog =
  Util.main_returning ~locals:[ array "input" 16; scalar "p" ]
    [
      store64 (v "input") (i64 (Shift_mem.Addr.in_region 1 0x10000L));
      Ir.Expr (call "sys_taint_set" [ v "input"; i 8; i 1 ]);
      set "p" (load64 (v "input"));
      store64 (v "p") (i 999);
      ret (i 0);
    ]

let expect_alert msg policy r =
  match r.Shift.Report.outcome with
  | Shift.Report.Alert a -> Alcotest.(check string) msg policy a.Shift_policy.Alert.policy
  | o -> Alcotest.failf "%s: expected alert, got %a" msg Shift.Report.pp_outcome o

let detection_tests =
  [
    tc "tainted pointer dereference raises L1 (shift-word)" (fun () ->
        expect_alert "L1" "L1" (Util.run_prog ~mode:Mode.shift_word tainted_pointer_prog));
    tc "tainted pointer dereference raises L1 (shift-byte)" (fun () ->
        expect_alert "L1" "L1" (Util.run_prog ~mode:Mode.shift_byte tainted_pointer_prog));
    tc "tainted store address raises L2" (fun () ->
        expect_alert "L2" "L2" (Util.run_prog ~mode:Mode.shift_word tainted_store_prog));
    tc "software DBT also detects the dereference" (fun () ->
        expect_alert "L1" "L1"
          (Util.run_prog
             ~mode:(Mode.Software_dbt { granularity = Shift_mem.Granularity.Word })
             tainted_pointer_prog));
    tc "uninstrumented code misses the attack" (fun () ->
        match (Util.run_prog ~mode:Mode.Uninstrumented tainted_pointer_prog).outcome with
        | Shift.Report.Exited _ -> ()
        | o -> Alcotest.failf "expected clean exit, got %a" Shift.Report.pp_outcome o);
    tc "enhanced modes detect it too" (fun () ->
        List.iter
          (fun enh ->
            expect_alert "L1" "L1"
              (Util.run_prog
                 ~mode:(Mode.Shift { granularity = Shift_mem.Granularity.Word; enh })
                 tainted_pointer_prog))
          [ Mode.enh1; Mode.enh_both ]);
    tc "disabling low-level policies reports a plain fault" (fun () ->
        let r =
          Util.run_prog
            ~policy:{ Policy.default with Policy.low_level = false }
            ~mode:Mode.shift_word tainted_pointer_prog
        in
        match r.Shift.Report.outcome with
        | Shift.Report.Fault _ -> ()
        | o -> Alcotest.failf "expected fault, got %a" Shift.Report.pp_outcome o);
  ]

let overhead_tests =
  (* sanity on the performance machinery the benchmarks rely on *)
  let work =
    Util.main_returning ~locals:[ array "a" 800; scalar "k"; scalar "acc" ]
      ([ set "acc" (i 0) ]
      @ for_up "k" (i 0) (i 100) [ store64 (v "a" +: (v "k" %: i 100 *: i 8)) (v "k") ]
      @ for_up "k" (i 0) (i 100)
          [ set "acc" (v "acc" +: load64 (v "a" +: (v "k" %: i 100 *: i 8))) ]
      @ [ ret (v "acc") ])
  in
  let cycles mode = Shift.Report.cycles (Util.run_prog ~mode work) in
  [
    tc "instrumented runs are slower than baseline" (fun () ->
        let base = cycles Mode.Uninstrumented in
        let word = cycles Mode.shift_word in
        let byte = cycles Mode.shift_byte in
        Util.check_bool "word > base" true (word > base);
        Util.check_bool "byte >= word" true (byte >= word));
    tc "enhancements reduce the slowdown" (fun () ->
        let base = cycles Mode.shift_word in
        let enh =
          cycles (Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh_both })
        in
        Util.check_bool "enh faster" true (enh < base));
    tc "software DBT is slower than SHIFT" (fun () ->
        let hw = cycles Mode.shift_word in
        let sw = cycles (Mode.Software_dbt { granularity = Shift_mem.Granularity.Word }) in
        Util.check_bool "sw slower" true (sw > hw));
    tc "identical runs are deterministic" (fun () ->
        Util.check_int "cycles equal" (cycles Mode.shift_word) (cycles Mode.shift_word));
  ]

let timeout_tests =
  (* fuel exhaustion surfaces as Report.Timeout through every entry
     point — single-hart and SMP alike (PR 3 satellite) *)
  let spin = Util.main_returning [ while_ (i 0 ==: i 0) []; ret (i 0) ] in
  let expect_timeout msg (r : Shift.Report.t) =
    match r.Shift.Report.outcome with
    | Shift.Report.Timeout -> ()
    | o -> Alcotest.failf "%s: expected timeout, got %a" msg Shift.Report.pp_outcome o
  in
  [
    tc "fuel 0 is an immediate timeout" (fun () ->
        expect_timeout "single"
          (Shift.Session.exec
             ~config:(Shift.Session.Config.make ~fuel:0 ())
             (Shift.Session.build ~mode:Mode.shift_word spin));
        let threading = Shift.Session.Config.Threads { quantum = None } in
        expect_timeout "mt"
          (Shift.Session.exec
             ~config:(Shift.Session.Config.make ~fuel:0 ~threading ())
             (Shift.Session.build ~mode:Mode.shift_word spin)));
    tc "a spinning guest times out with its counters intact" (fun () ->
        let r =
          Shift.Session.exec
            ~config:(Shift.Session.Config.make ~fuel:5000 ())
            (Shift.Session.build ~mode:Mode.shift_word spin)
        in
        expect_timeout "single" r;
        Util.check_int "all fuel consumed" 5000
          r.Shift.Report.stats.Shift_machine.Stats.instructions;
        Util.check_bool "cycles advanced" true
          (r.Shift.Report.stats.Shift_machine.Stats.cycles > 0));
    tc "a finished session reports the same outcome forever" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word spin in
        let config = Shift.Session.Config.make ~fuel:100 () in
        let live = Shift.Session.start ~config image in
        (match Shift.Session.advance live ~budget:1000 with
        | `Finished Shift.Report.Timeout -> ()
        | _ -> Alcotest.fail "expected timeout");
        match (Shift.Session.outcome live, Shift.Session.advance live ~budget:1) with
        | Some Shift.Report.Timeout, `Finished Shift.Report.Timeout -> ()
        | _ -> Alcotest.fail "timeout not sticky");
  ]

let suites =
  [
    ("session.detection", detection_tests);
    ("session.overhead", overhead_tests);
    ("session.timeout", timeout_tests);
  ]
