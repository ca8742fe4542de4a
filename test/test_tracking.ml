(* The tracking-backend interface (lib/tracking).

   Three claims, matching the backends experiment's CI verdicts:

   - the [nat] backend is invisible: a session run with an explicit
     [--backend nat] is byte-identical (report JSON and flow JSONL) to
     one run through the default path, superblocks on or off;
   - the [coproc] backend is sound on the Table-2 suite: every exploit
     alerts at queue-drain time (the alert names its drain lag), every
     benign input stays clean, and random benign programs exit with the
     uninstrumented exit code (the taint markers kept in the
     uninstrumented stream feed the mirror, not the NaT file);
   - the lag model honours its bounds: drain lag never exceeds the
     queue capacity, and a full queue charges stall cycles;
   - the coprocessor is engine-independent: with superblocks on, its
     queue, tag file and counters match the interpreter's at every
     slice boundary, including when stalls and alerts land mid-block. *)

open Build
module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module Backend = Shift.Backend
module Tracking = Shift.Tracking
module Case = Shift_attacks.Attack_case

let tc = Util.tc
let fuel = 200_000_000

let report_bytes r = Shift.Results.to_string (Shift.Results.of_report r)

(* ---------- Backend names ---------- *)

let name_tests =
  [
    tc "to_string/of_string round-trips" (fun () ->
        List.iter
          (fun b ->
            match Backend.of_string (Backend.to_string b) with
            | Ok b' -> Alcotest.(check bool) (Backend.to_string b) true (b = b')
            | Error e -> Alcotest.fail e)
          [ Backend.Nat; Backend.Coproc; Backend.Off ]);
    tc "aliases parse" (fun () ->
        List.iter
          (fun (s, b) ->
            match Backend.of_string s with
            | Ok b' -> Alcotest.(check bool) s true (b = b')
            | Error e -> Alcotest.fail e)
          [
            ("shift", Backend.Nat);
            ("NAT", Backend.Nat);
            ("coprocessor", Backend.Coproc);
            ("off", Backend.Off);
            ("baseline", Backend.Off);
          ]);
    tc "an unknown backend is an error naming the choices" (fun () ->
        match Backend.of_string "fpga" with
        | Ok _ -> Alcotest.fail "parsed nonsense"
        | Error e ->
            Alcotest.(check bool) "mentions nat" true (Str_exists.contains e "nat"));
  ]

(* ---------- nat identity (QCheck, sb on and off) ---------- *)

(* [backend] picks both the compilation and the session's tracking *)
let run ?superblocks ?backend ~mode prog =
  Shift.Session.exec
    ~config:(Shift.Session.Config.make ~fuel ?superblocks ?backend ())
    (Shift.Session.build ?backend ~mode prog)

(* the default path: no backend argument anywhere — exactly what every
   caller wrote before lib/tracking existed *)
let run_default ~superblocks prog = run ~superblocks ~mode:Mode.shift_word prog

let run_nat ~superblocks prog =
  run ~superblocks ~backend:Backend.Nat ~mode:Mode.shift_word prog

let identity_test =
  QCheck.Test.make ~count:30
    ~name:"backend nat is byte-identical to the default path (sb on/off)"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Test_random.gen_program seed in
      List.for_all
        (fun superblocks ->
          report_bytes (run_default ~superblocks prog)
          = report_bytes (run_nat ~superblocks prog))
        [ true; false ])

(* coproc runs the guest uninstrumented; on programs whose addresses
   stay clean it must reach the very exit code the baseline reaches —
   this is the differential that catches a dropped [untaint] marker
   (a stale mirror tag would fault some masked index as an L1) *)
let coproc_differential_test =
  QCheck.Test.make ~count:30
    ~name:"random benign programs under coproc match the baseline exit code"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Test_random.gen_program seed in
      let base =
        Util.exit_code
          (run ~backend:Backend.Off ~mode:Mode.shift_word prog)
      in
      Util.exit_code (run ~backend:Backend.Coproc ~mode:Mode.shift_word prog)
      = base)

let flow_jsonl ?backend prog =
  let image = Shift.Session.build ?backend ~mode:Mode.shift_word prog in
  let config =
    Shift.Session.Config.make ~fuel
      ~trace:{ Shift.Flowtrace.capacity = 4096; only = None }
      ?backend ()
  in
  let live = Shift.Session.start ~config image in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  match Shift.Session.flowtrace live with
  | Some ft ->
      Shift.Flow.jsonl ~outcome:(Shift.Session.report live).Shift.Report.outcome ft
  | None -> Alcotest.fail "trace was requested but absent"

let identity_tests =
  [
    QCheck_alcotest.to_alcotest identity_test;
    QCheck_alcotest.to_alcotest coproc_differential_test;
    tc "flow JSONL is byte-identical under an explicit nat backend" (fun () ->
        let prog = Test_random.gen_program 7 in
        Util.check_string "flow JSONL" (flow_jsonl prog)
          (flow_jsonl ~backend:Backend.Nat prog));
    tc "backend none runs the guest with sources and checks off" (fun () ->
        let prog = Test_random.gen_program 11 in
        let off = run ~backend:Backend.Off ~mode:Mode.shift_word prog in
        let unins = run ~mode:Mode.Uninstrumented prog in
        Util.check_i64 "exit code" (Util.exit_code unins) (Util.exit_code off);
        Util.check_int "cycles" (Shift.Report.cycles unins)
          (Shift.Report.cycles off));
  ]

(* ---------- coproc detection and lag semantics ---------- *)

(* tainted input value used as a load address: L1 under nat, and — one
   drain later — under the coprocessor *)
let tainted_pointer_prog =
  Util.main_returning ~locals:[ array "input" 16; scalar "p" ]
    [
      store64 (v "input") (i64 (Shift_mem.Addr.in_region 1 0x10000L));
      Ir.Expr (call "sys_taint_set" [ v "input"; i 8; i 1 ]);
      set "p" (load64 (v "input"));
      ret (load64 (v "p"));
    ]

let run_coproc ?policy ?setup prog =
  let backend = Backend.Coproc in
  let image = Shift.Session.build ~backend ~mode:Mode.shift_word prog in
  let config =
    Shift.Session.Config.make ?policy ?setup ~fuel ~backend ()
  in
  let live = Shift.Session.start ~config image in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  (Shift.Session.report live, Tracking.stats (Shift.Session.tracking live))

let attack_coproc ~superblocks ~benign (c : Case.t) =
  let backend = Backend.Coproc in
  let image = Shift.Session.build ~backend ~mode:Mode.shift_word c.Case.program in
  let setup = if benign then c.Case.benign else c.Case.exploit in
  let config =
    Shift.Session.Config.make ~policy:c.Case.policy ~setup ~superblocks ~backend
      ()
  in
  let live = Shift.Session.start ~config image in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  (Shift.Session.report live, Tracking.stats (Shift.Session.tracking live))

let coproc_tests =
  [
    tc "a tainted pointer dereference alerts, naming its drain lag" (fun () ->
        let report, stats = run_coproc tainted_pointer_prog in
        match report.Shift.Report.outcome with
        | Shift.Report.Alert a ->
            Util.check_string "policy" "L1" a.Shift_policy.Alert.policy;
            Alcotest.(check bool)
              "message names the coprocessor" true
              (Str_exists.contains a.Shift_policy.Alert.message "drain lag");
            Alcotest.(check bool)
              "alert lag within the queue bound" true
              (stats.Tracking.last_alert_lag <= Tracking.default_capacity)
        | o ->
            Alcotest.failf "expected an alert, got %a" Shift.Report.pp_outcome o);
    tc "every Table-2 exploit alerts; every benign input is clean" (fun () ->
        List.iter
          (fun (c : Case.t) ->
            let run ~benign superblocks =
              attack_coproc ~superblocks ~benign c
            in
            (let ((report, stats) as on) = run ~benign:false true in
             (match report.Shift.Report.outcome with
             | Shift.Report.Alert _ -> ()
             | o ->
                 Alcotest.failf "%s: exploit not detected (%a)"
                   c.Case.program_name Shift.Report.pp_outcome o);
             Alcotest.(check bool)
               (c.Case.program_name ^ ": lag bounded") true
               (stats.Tracking.last_alert_lag <= Tracking.default_capacity
               && stats.Tracking.max_lag <= Tracking.default_capacity);
             let off = run ~benign:false false in
             Util.check_string
               (c.Case.program_name ^ ": alert report, superblocks on = off")
               (report_bytes (fst off)) (report_bytes report);
             Alcotest.(check bool)
               (c.Case.program_name ^ ": queue stats, superblocks on = off")
               true
               (snd on = snd off));
            List.iter
              (fun superblocks ->
                let benign_report, _ = run ~benign:true superblocks in
                match benign_report.Shift.Report.outcome with
                | Shift.Report.Alert a ->
                    Alcotest.failf "%s: false alarm on benign input (%s)"
                      c.Case.program_name a.Shift_policy.Alert.message
                | _ -> ())
              [ true; false ])
          Shift_attacks.Attacks.all);
    tc "the queue is fully drained when a run finishes" (fun () ->
        let prog = Test_random.gen_program 23 in
        let _, stats = run_coproc prog in
        Util.check_int "enqueued = drained" stats.Tracking.enqueued
          stats.Tracking.drained);
  ]

(* ---------- coproc: superblocks on = off ---------- *)

let coproc_live ?threading ?capacity ?drain_rate ~superblocks prog =
  let backend = Backend.Coproc in
  let config =
    Shift.Session.Config.make ~fuel ~superblocks ~backend ?threading
      ?coproc_capacity:capacity ?coproc_drain_rate:drain_rate ()
  in
  Shift.Session.start ~config
    (Shift.Session.build ~backend ~mode:Mode.shift_word prog)

(* Both engines advance in lockstep slices; at every boundary the
   coprocessor's whole state (queue, tag file, lag clock, uncharged
   stall) and every counter must agree, and so must the final report. *)
let engines_agree ?threading ?capacity ?drain_rate prog =
  let on = coproc_live ?threading ?capacity ?drain_rate ~superblocks:true prog in
  let off =
    coproc_live ?threading ?capacity ?drain_rate ~superblocks:false prog
  in
  let state live =
    let tk = Shift.Session.tracking live in
    (Tracking.export tk, Tracking.stats tk)
  in
  let rec go () =
    let a = Shift.Session.advance on ~budget:211 in
    let b = Shift.Session.advance off ~budget:211 in
    state on = state off
    &&
    match (a, b) with
    | `Yielded, `Yielded -> go ()
    | `Finished _, `Finished _ -> true
    | _ -> false
  in
  go ()
  && report_bytes (Shift.Session.report on)
     = report_bytes (Shift.Session.report off)

let coproc_engine_test =
  QCheck.Test.make ~count:20
    ~name:"coproc: superblocks on = off, default and stalling knobs"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Test_random.gen_program seed in
      (* drain 1 with capacity 2 or 1: the queue runs full, so stalls
         and forced drains land inside compiled blocks — at capacity 1,
         on every checked load and store *)
      engines_agree prog
      && engines_agree ~capacity:2 ~drain_rate:1 prog
      && engines_agree ~capacity:1 ~drain_rate:1 prog)

(* two spawned harts looping long enough to compile blocks, sharing the
   one coprocessor *)
let threaded_loops_prog =
  let open Build.Infix in
  {
    Ir.globals = [];
    funcs =
      [
        func "worker" ~params:[ "x" ] ~locals:[ scalar "acc"; scalar "j" ]
          ([ set "acc" (i 0) ]
          @ for_up "j" (i 0) (i 300) [ set "acc" (v "acc" +: (v "j" *: v "x")) ]
          @ [ ret (v "acc") ]);
        func "main" ~params:[] ~locals:[ scalar "t1"; scalar "t2" ]
          [
            set "t1" (call "sys_spawn" [ fnptr "worker"; i 5 ]);
            set "t2" (call "sys_spawn" [ fnptr "worker"; i 6 ]);
            ret (call "sys_join" [ v "t1" ] +: call "sys_join" [ v "t2" ]);
          ];
      ];
  }

(* A session on a warm shared block table against a cold interpreter
   run, both checkpointed and restored in memory at every slice
   boundary (the coprocessor's counters restart with each restored
   session, so the cold side is cut the same way).  The restored session
   picks up its image's code and its blocks read the new session's
   tracking handle, so nothing may differ at any boundary. *)
let warm_restored_agrees ~backend ~mode ~trace prog =
  let config superblocks =
    Shift.Session.Config.make ~fuel ~superblocks ~backend ?trace ()
  in
  let image = Shift.Session.build ~backend ~mode prog in
  let warm_up = Shift.Session.start ~config:(config true) image in
  (match Shift.Session.advance warm_up ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  let state live =
    let tk = Shift.Session.tracking live in
    ( report_bytes (Shift.Session.report live),
      Tracking.stats tk,
      Tracking.export tk )
  in
  let park live = Shift.Session.restore (Shift.Session.checkpoint live) in
  let rec go warm cold =
    let a = Shift.Session.advance warm ~budget:211 in
    let b = Shift.Session.advance cold ~budget:211 in
    state warm = state cold
    &&
    match (a, b) with
    | `Yielded, `Yielded -> go (park warm) (park cold)
    | `Finished _, `Finished _ -> true
    | _ -> false
  in
  go
    (Shift.Session.start ~config:(config true) image)
    (Shift.Session.start ~config:(config false)
       (Shift.Session.build ~backend ~mode prog))

let warm_table_test =
  QCheck.Test.make ~count:8
    ~name:"warm shared blocks, restored every slice = cold interpreter"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Test_random.gen_program seed in
      List.for_all
        (fun (backend, mode) ->
          List.for_all
            (fun trace -> warm_restored_agrees ~backend ~mode ~trace prog)
            [ None; Some Shift.Flowtrace.default_options ])
        [
          (Backend.Nat, Mode.shift_word);
          (Backend.Nat, Mode.shift_byte);
          (Backend.Coproc, Mode.shift_word);
          (Backend.Off, Mode.shift_word);
        ])

let engine_tests =
  [
    QCheck_alcotest.to_alcotest coproc_engine_test;
    QCheck_alcotest.to_alcotest warm_table_test;
    tc "threaded coproc: superblocks on = off" (fun () ->
        let threading = Shift.Session.Config.Threads { quantum = Some 97 } in
        let live =
          coproc_live ~threading ~superblocks:true threaded_loops_prog
        in
        (match Shift.Session.advance live ~budget:max_int with
        | `Finished _ | `Yielded -> ());
        Util.check_i64 "exit code" (Int64.of_int (11 * 44850))
          (Util.exit_code (Shift.Session.report live));
        Alcotest.(check bool) "blocks entered" true
          ((Shift.Session.superblock_stats live).Shift_machine.Stats.sb_hits > 0);
        Alcotest.(check bool) "default knobs" true
          (engines_agree ~threading threaded_loops_prog);
        Alcotest.(check bool) "capacity 1, drain 1" true
          (engines_agree ~threading ~capacity:1 ~drain_rate:1
             threaded_loops_prog));
  ]

(* ---------- the queue unit model ---------- *)

let queue_tests =
  [
    tc "a full queue force-drains and charges the stall penalty" (fun () ->
        let t = Tracking.create ~backend:Backend.Coproc ~capacity:2 () in
        for r = 1 to 5 do
          Tracking.push t (Tracking.Set { dst = r; tainted = true })
        done;
        let stats = Tracking.stats t in
        Util.check_int "stalls" 3 stats.Tracking.stalls;
        Util.check_int "stall cycles handed to the pipeline"
          (3 * Tracking.default_stall_penalty)
          (Tracking.take_stall t);
        Util.check_int "taking the stall resets it" 0 (Tracking.take_stall t);
        Util.check_int "queue holds capacity records" 2 (Tracking.queue_length t));
    tc "drain applies records in program order" (fun () ->
        let t = Tracking.create ~backend:Backend.Coproc ~capacity:8 () in
        Tracking.push t (Tracking.Set { dst = 4; tainted = true });
        Tracking.push t (Tracking.Move { dst = 5; src = 4 });
        Tracking.push t (Tracking.Set { dst = 4; tainted = false });
        Tracking.flush t;
        Alcotest.(check bool) "r5 took r4's old tag" true (Tracking.reg_tag t 5);
        Alcotest.(check bool) "r4 was cleared last" false (Tracking.reg_tag t 4));
    tc "nat and none handles are inert" (fun () ->
        List.iter
          (fun backend ->
            let t = Tracking.create ~backend () in
            Alcotest.(check bool) "no per-instr hook" false (Tracking.per_instr t);
            Tracking.tick t;
            Util.check_int "nothing enqueued" 0 (Tracking.queue_length t))
          [ Backend.Nat; Backend.Off ]);
    tc "typed pushes and ticks allocate nothing" (fun () ->
        (* capacity 4 with four pushes per tick: the loop also takes the
           stall path; r9 is never tagged, so the checks stay quiet *)
        let t = Tracking.create ~backend:Backend.Coproc ~capacity:4 () in
        let loop n =
          for i = 1 to n do
            Tracking.push_set t ~dst:(1 + (i land 7)) ~tainted:(i land 1 = 0);
            Tracking.push_move t ~dst:2 ~src:3;
            Tracking.push_union t ~dst:4 ~s1:2 ~s2:0;
            Tracking.push_check t Tracking.Load_address ~reg:9;
            Tracking.tick t
          done
        in
        loop 100;
        let before = Gc.minor_words () in
        loop 10_000;
        let words = Gc.minor_words () -. before in
        Alcotest.(check (float 0.)) "minor words" 0. words;
        Alcotest.(check bool) "stalls taken" true
          ((Tracking.stats t).Tracking.stalls > 0));
    tc "load and store pushes allocate nothing" (fun () ->
        let mem = Shift_mem.Memory.create () in
        let t = Tracking.create ~backend:Backend.Coproc ~mem () in
        let addr = Shift_mem.Addr.in_region 1 0x10000L in
        let fill () =
          for _ = 1 to Tracking.default_capacity / 2 do
            Tracking.push_load t ~dst:3 ~addr ~len:8;
            Tracking.push_store t ~addr ~len:4 ~src:3
          done
        in
        (* the first fill grows the ring to its full size *)
        fill ();
        Tracking.flush t;
        let before = Gc.minor_words () in
        fill ();
        let words = Gc.minor_words () -. before in
        Alcotest.(check (float 0.)) "minor words" 0. words;
        Util.check_int "queued" Tracking.default_capacity
          (Tracking.queue_length t));
  ]

(* ---------- snapshots ---------- *)

let snapshot_tests =
  [
    tc "a coproc session checkpoints mid-flight and resumes identically"
      (fun () ->
        let backend = Backend.Coproc in
        let prog = Test_random.gen_program 42 in
        let image = Shift.Session.build ~backend ~mode:Mode.shift_word prog in
        let config = Shift.Session.Config.make ~fuel ~backend () in
        let finish live =
          (match Shift.Session.advance live ~budget:max_int with
          | `Finished _ | `Yielded -> ());
          Shift.Session.report live
        in
        let reference = finish (Shift.Session.start ~config image) in
        let live = Shift.Session.start ~config image in
        (match Shift.Session.advance live ~budget:500 with
        | `Yielded -> ()
        | `Finished _ -> Alcotest.fail "finished before the checkpoint");
        let snap = Shift.Session.checkpoint live in
        let text = Shift.Results.to_string (Shift.Snapshot.to_json snap) in
        let snap =
          match Shift.Results.of_string text with
          | Error e -> Alcotest.failf "snapshot JSON did not parse: %s" e
          | Ok j -> (
              match Shift.Snapshot.of_json j with
              | Error e -> Alcotest.failf "snapshot did not decode: %s" e
              | Ok s -> s)
        in
        let resumed = finish (Shift.Session.restore snap) in
        Util.check_string "byte-identical report" (report_bytes reference)
          (report_bytes resumed));
    tc "non-default queue knobs survive checkpoint/restore" (fun () ->
        let backend = Backend.Coproc in
        let k = Option.get (Shift_workloads.Spec.find "gzip") in
        let image =
          Shift.Session.build ~backend ~mode:Mode.shift_word
            k.Shift_workloads.Spec.program
        in
        let config =
          Shift.Session.Config.make ~fuel ~backend
            ~setup:(Shift_workloads.Spec.setup ~size:64 ~tainted:true k)
            ~coproc_capacity:4 ~coproc_drain_rate:1 ~coproc_stall_penalty:7 ()
        in
        let finish live =
          (match Shift.Session.advance live ~budget:max_int with
          | `Finished _ | `Yielded -> ());
          Shift.Session.report live
        in
        let straight = finish (Shift.Session.start ~config image) in
        let live = Shift.Session.start ~config image in
        (match Shift.Session.advance live ~budget:20_000 with
        | `Yielded -> ()
        | `Finished _ -> Alcotest.fail "finished before the checkpoint");
        let text =
          Shift.Results.to_string
            (Shift.Snapshot.to_json (Shift.Session.checkpoint live))
        in
        let snap =
          match Result.bind (Shift.Results.of_string text) Shift.Snapshot.of_json with
          | Error e -> Alcotest.failf "snapshot did not decode: %s" e
          | Ok s -> s
        in
        let restored = Shift.Session.restore snap in
        Util.check_int "restored capacity" 4
          (Tracking.capacity (Shift.Session.tracking restored));
        let resumed = finish restored in
        Alcotest.(check bool)
          "the knobs stall the queue" true
          ((Tracking.stats (Shift.Session.tracking live)).Tracking.stalls > 0);
        Util.check_string "byte-identical report" (report_bytes straight)
          (report_bytes resumed));
    tc "export/import round-trips the queue and tag file" (fun () ->
        let t = Tracking.create ~backend:Backend.Coproc ~capacity:8 () in
        Tracking.push t (Tracking.Set { dst = 3; tainted = true });
        Tracking.tick t;
        Tracking.push t (Tracking.Union { dst = 6; s1 = 3; s2 = 0 });
        let dump = Tracking.export t in
        let t' = Tracking.create ~backend:Backend.Coproc ~capacity:8 () in
        Tracking.import t' dump;
        Util.check_int "queue length" (Tracking.queue_length t)
          (Tracking.queue_length t');
        Tracking.flush t';
        Alcotest.(check bool) "r3 tag survives" true (Tracking.reg_tag t' 3);
        Alcotest.(check bool) "r6 unions from r3" true (Tracking.reg_tag t' 6));
  ]

let suites =
  [
    ("tracking.backend", name_tests);
    ("tracking.identity", identity_tests);
    ("tracking.coproc", coproc_tests);
    ("tracking.engines", engine_tests);
    ("tracking.queue", queue_tests);
    ("tracking.snapshot", snapshot_tests);
  ]
