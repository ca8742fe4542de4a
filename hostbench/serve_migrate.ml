(* serve-migrate: the daemon under open-loop load, with live migration.

   The daemon runs in its own process (Serve.Server over
   Catalog.standard): one worker, 50 000-instruction slices, every
   session parked and restored every 2 slices, each park spilled to a
   checkpoint directory.  One connection sends `run` requests on a
   fixed schedule -- request i is due at t0 + i * interarrival whether
   or not earlier ones have come back -- and each is timed from its due
   time.  The requests cover the 8 kernels equally, each at an input
   size that retires about 1M instructions, in a seeded order.  The
   interarrival leaves the worker about half busy, below the point
   where queueing would dominate latency.  Snapshot capture, restore
   and encode, the scheduler and the protocol do a large share of the
   work; the other workloads never touch them.

   The traced run drives the same job stream through an in-process
   Serve.Scheduler (the daemon's internals cannot be reached from
   outside), then replays the jobs at the Session level with a span
   around every call, which splits migration cost into capture,
   restore, spill and superblock re-warm. *)

open Common
module Protocol = Shift.Protocol
module Serve = Shift.Serve
module Sched = Shift.Serve.Scheduler
module Client = Shift.Serve.Client
module Openloop = Hostbench.Openloop

let slice = 50_000
let migrate_every = 2
let interarrival = 0.24
let workers = 1

(* input sizes at which each kernel retires about 1M instructions under
   nat/word (found by bisection on the size; 991k-1005k) *)
let sizes =
  [
    ("gzip", 128); ("gcc", 3039); ("crafty", 1824); ("bzip2", 321);
    ("vpr", 112); ("mcf", 9952); ("parser", 3799); ("twolf", 187);
  ]

let jobs = List.map (fun (n, size) -> (Option.get (Spec.find n), size)) sizes

(* the configuration Catalog.standard builds for a `run` request *)
let config (k : Spec.kernel) size =
  Session.Config.make ~policy:Policy.default
    ~setup:(Spec.setup ~size ~tainted:true k)
    ~superblocks:true ~backend:Backend.Nat ()

let image (k : Spec.kernel) =
  Session.build ~backend:Backend.Nat ~mode:Mode.shift_word k.Spec.program

let request_line ~id ((k : Spec.kernel), size) =
  Protocol.to_line
    (Protocol.request_to_json
       {
         Protocol.id = Some id;
         tenant = None;
         deadline = None;
         migrate_every = None;
         request =
           Protocol.Run
             {
               kernel = k.Spec.name;
               mode = Mode.shift_word;
               size = Some size;
               safe = false;
               superblocks = true;
               backend = Backend.Nat;
             };
       })

(* solo references: each job's report run straight through Session.exec
   (the solo_vs_serve invariant: a served report must equal it) *)
type reference = { report : string; instrs : int }
type refs = (string * reference) list

let solo () =
  List.map
    (fun ((k : Spec.kernel), size) ->
      let r = Session.exec ~config:(config k size) (image k) in
      (k.Spec.name, { report = digest r; instrs = instructions r }))
    jobs

(* N requests, each kernel N/8 times, in seeded order; N is at least
   the 100 a p90 needs and otherwise fills [seconds] *)
let schedule ~rng ~seconds =
  let per = List.length jobs in
  let round_up n = (n + per - 1) / per * per in
  let n =
    max
      (round_up (Pct.min_samples ~p:0.9))
      (int_of_float (seconds /. interarrival) / per * per)
  in
  Array.of_list (shuffle rng (List.concat (List.init (n / per) (fun _ -> jobs))))

(* ---- the daemon process ---- *)

let run_dir = ".hostbench"

let daemon_main ~socket ~spill =
  Serve.Server.run ~catalog:Shift_catalog.Catalog.standard
    {
      Serve.Server.default_config with
      socket_path = socket;
      workers;
      slice;
      checkpoint_dir = Some spill;
      migrate_every = Some migrate_every;
    }

type daemon = { pid : int; client : Client.t; spill : string }

let fresh_dir prefix =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let rec go i =
    let p = Filename.concat run_dir (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) i) in
    if Sys.file_exists p || Sys.file_exists (p ^ ".sock") then go (i + 1) else p
  in
  go 0

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let cleanup_run_dir () =
  if Sys.file_exists run_dir && Sys.readdir run_dir = [||] then Sys.rmdir run_dir

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let spawn () =
  let base = fresh_dir "serve" in
  let socket = base ^ ".sock" and spill = base ^ ".spill" in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "serve-daemon"; socket; spill |] Unix.stdin
      Unix.stderr Unix.stderr
  in
  let deadline = now () +. 30. in
  let rec connect () =
    match Client.connect socket with
    | Ok client -> { pid; client; spill }
    | Error e ->
        let exited =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> false
          | _ -> true
          | exception Unix.Unix_error _ -> true
        in
        if exited || now () > deadline then begin
          if not exited then kill pid;
          failwith ("serve-migrate: daemon did not come up: " ^ e)
        end;
        Unix.sleepf 0.005;
        connect ()
  in
  connect ()

(* drain, wait for the daemon to exit, remove what it left behind *)
let stop d =
  let drained =
    Client.request d.client
      {
        Protocol.id = Some "drain";
        tenant = None;
        deadline = None;
        migrate_every = None;
        request = Protocol.Drain;
      }
  in
  Client.close d.client;
  (match drained with Ok _ -> reap d.pid | Error _ -> kill d.pid);
  remove_tree d.spill;
  cleanup_run_dir ()

(* the report inside a served response, re-serialised as the solo
   digest is *)
let served_report line =
  match J.of_string line with
  | Error e -> Error e
  | Ok json -> (
      match
        ( Protocol.response_id json,
          Option.bind (J.member "result" json) (J.member "report") )
      with
      | Some id, Some report when Protocol.response_ok json -> Ok (id, J.to_string report)
      | Some id, _ -> Ok (id, "error response: " ^ line)
      | None, _ -> Error ("response without an id: " ^ line))

let warm_up d (refs : refs) =
  let k, size = List.hd jobs in
  match Client.send_line d.client (request_line ~id:"warm-up" (k, size)) with
  | Error e -> failwith e
  | Ok () -> (
      match Option.map served_report (Client.read_line d.client) with
      | Some (Ok (_, r)) when r = (List.assoc k.Spec.name refs).report -> ()
      | _ -> failwith "serve-migrate: warm-up request did not match its solo report")

(* sleep until request [i] is due *)
let pace ol i =
  let wait = Openloop.due ol i -. now () in
  if wait > 0. then Unix.sleepf wait

type open_phase = {
  ol : Openloop.t;
  bad : int;
  cpu : float;
  rss : float;
  instrs : int;
  problems : string list;
}

(* the open loop against the daemon: this thread sends on schedule, a
   second one reads responses as they come *)
let open_loop d (refs : refs) sched =
  let n = Array.length sched in
  let lines = Array.mapi (fun i j -> request_line ~id:(string_of_int i) j) sched in
  let ol = Openloop.create ~t0:(now () +. 0.02) ~interarrival n in
  let problems = ref [] and bad = ref 0 and instrs = ref 0 in
  let lock = Mutex.create () in
  let note p =
    Mutex.protect lock (fun () ->
        incr bad;
        problems := p :: !problems)
  in
  let receiver =
    Thread.create
      (fun () ->
        let rec go left =
          if left > 0 then
            match Client.read_line d.client with
            | None -> note "daemon closed the connection"
            | Some line ->
                let at = now () in
                (match served_report line with
                | Error e -> note e
                | Ok (id, report) -> (
                    match int_of_string_opt id with
                    | Some i when i >= 0 && i < n ->
                        Openloop.mark_done ol i ~at;
                        let r = List.assoc (fst sched.(i)).Spec.name refs in
                        instrs := !instrs + r.instrs;
                        if report <> r.report then
                          note (Printf.sprintf "request %d: served report differs from solo" i)
                    | _ -> note ("unexpected response id " ^ id)));
                go (left - 1)
        in
        go n)
      ()
  in
  let cpu0 = Procstat.cpu_s d.pid in
  Array.iteri
    (fun i line ->
      pace ol i;
      Openloop.mark_sent ol i ~at:(now ());
      match Client.send_line d.client line with
      | Ok () -> ()
      | Error e -> note e)
    lines;
  Thread.join receiver;
  let cpu = Procstat.cpu_s d.pid -. cpu0 in
  let rss = Procstat.peak_rss_mb d.pid in
  { ol; bad = !bad; cpu; rss; instrs = !instrs; problems = !problems }

(* ---- traced run, part 1: the same stream through an in-process
   Scheduler ---- *)

type sched_phase = {
  lat : float list;
  queue_wait : float list;
  slices : float list;
  busy_share : float;
  migrations : float;
  sched_problems : string list;
}

let in_process (refs : refs) sched =
  let n = Array.length sched in
  let spill = fresh_dir "inproc" ^ ".spill" in
  let lock = Mutex.create () in
  let ol = Openloop.create ~t0:(now () +. 0.02) ~interarrival n in
  let started = Array.make n Float.nan in
  let slices = ref [] and migrations = ref 0 and problems = ref [] in
  let on_done (dj : Sched.done_job) =
    let i = int_of_string dj.Sched.job in
    Openloop.mark_done ol i ~at:(now ());
    let ok =
      match dj.Sched.outcome with
      | Shift.Fleet.Finished r ->
          digest r = (List.assoc (fst sched.(i)).Spec.name refs).report
      | Shift.Fleet.Crashed _ -> false
    in
    Mutex.protect lock (fun () ->
        migrations := !migrations + dj.Sched.migrations;
        if not ok then
          problems := Printf.sprintf "in-process job %d differs from solo" i :: !problems)
  in
  let s =
    Sched.create ~workers ~slice ~checkpoint_dir:spill
      ~on_slice:(fun dt -> Mutex.protect lock (fun () -> slices := dt :: !slices))
      ~on_done ()
  in
  Array.iteri
    (fun i ((k : Spec.kernel), size) ->
      pace ol i;
      (* the image thunk runs on the worker when the job's first stretch
         starts: the end of its queue wait *)
      let job =
        Shift.Fleet.job ~name:k.Spec.name ~config:(config k size) (fun () ->
            let at = now () in
            Mutex.protect lock (fun () ->
                if Float.is_nan started.(i) then started.(i) <- at);
            image k)
      in
      Openloop.mark_sent ol i ~at:(now ());
      Sched.submit s ~migrate_every ~id:(string_of_int i) job)
    sched;
  Sched.drain s;
  Sched.shutdown s;
  remove_tree spill;
  (* worker busy = time some started job was unfinished (one worker, and
     the pool never idles with work queued) *)
  let lat = Openloop.latencies ol in
  let intervals =
    List.sort compare
      (List.mapi (fun i l -> (started.(i), Openloop.due ol i +. l)) lat)
  in
  let busy, _ =
    List.fold_left
      (fun (busy, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (busy +. (b -. a), b) else (busy, reach))
      (0., 0.) intervals
  in
  {
    lat;
    queue_wait = List.init n (fun i -> started.(i) -. Openloop.due ol i);
    slices = !slices;
    busy_share = busy /. Openloop.wall ol;
    migrations = float_of_int !migrations /. float_of_int n;
    sched_problems = !problems;
  }

(* ---- traced run, part 2: Session-level replay ---- *)

type replay_sums = {
  mutable straight : float;  (** whole straight twin: build, start, advances *)
  mutable straight_adv : float;
  mutable migrated_adv : float;
  mutable parks : int;
}

let replay t spans (refs : refs) ~rng ~rounds =
  let spill = fresh_dir "replay" ^ ".snap.json" in
  let per_kernel = Hashtbl.create 8 in
  let sums k =
    match Hashtbl.find_opt per_kernel k with
    | Some s -> s
    | None ->
        let s = { straight = 0.; straight_adv = 0.; migrated_adv = 0.; parks = 0 } in
        Hashtbl.replace per_kernel k s;
        s
  in
  let snap_bytes = ref [] and responses = ref [] and problems = ref [] in
  let finals = ref [] and stretches = ref [] in
  let op = ref 0 and op_kernel = Hashtbl.create 32 in
  for _ = 1 to rounds do
    List.iter
      (fun (((k : Spec.kernel), size) as job) ->
        let s = sums k.Spec.name in
        let ref_report = (List.assoc k.Spec.name refs).report in
        (* the straight twin: no parks, so superblocks stay warm *)
        let t0 = now () in
        let live = Session.start ~config:(config k size) (image k) in
        let rec straight () =
          let a0 = now () in
          let r = Session.advance live ~budget:slice in
          s.straight_adv <- s.straight_adv +. (now () -. a0);
          match r with `Yielded -> straight () | `Finished _ -> ()
        in
        straight ();
        s.straight <- s.straight +. (now () -. t0);
        (* the daemon's work for one request, span by span *)
        let line = request_line ~id:(string_of_int !op) job in
        Hashtbl.replace op_kernel !op k.Spec.name;
        Spans.set_op spans !op;
        let final, response =
          Spans.record spans "bench.op" (fun () ->
              ignore (Spans.record spans "protocol.parse" (fun () -> Protocol.of_line line));
              let img = Spans.record spans "compiler.build" (fun () -> image k) in
              let live =
                ref
                  (Spans.record spans "session.start" (fun () ->
                       Session.start ~config:(config k size) img))
              in
              let parks = ref 0 in
              let rec go yields =
                let a0 = now () in
                let r =
                  Spans.record spans "session.advance" (fun () ->
                      Session.advance !live ~budget:slice)
                in
                s.migrated_adv <- s.migrated_adv +. (now () -. a0);
                match r with
                | `Finished _ -> ()
                | `Yielded when yields + 1 < migrate_every -> go (yields + 1)
                | `Yielded ->
                    let snap =
                      Spans.record spans "snapshot.capture" (fun () ->
                          Session.checkpoint !live)
                    in
                    Spans.record spans "snapshot.encode" (fun () ->
                        Shift.Snapshot.save spill snap);
                    stretches := !live :: !stretches;
                    live :=
                      Spans.record spans "snapshot.restore" (fun () ->
                          Session.restore snap);
                    incr parks;
                    go 0
              in
              go 0;
              s.parks <- s.parks + !parks;
              let report = Session.report !live in
              let response =
                Spans.record spans "protocol.encode" (fun () ->
                    Protocol.to_line
                      (Protocol.ok_response ~id:(string_of_int !op)
                         (J.Obj
                            [
                              ("migrations", J.Int !parks);
                              ("attempts", J.Int 1);
                              ("report", J.of_report report);
                            ])))
              in
              (!live, (report, response)))
        in
        Spans.set_op spans (-1);
        let report, response = response in
        stretches := final :: !stretches;
        finals := final :: !finals;
        responses := float_of_int (String.length response) :: !responses;
        if digest report <> ref_report then
          problems := Printf.sprintf "replay %s differs from solo" k.Spec.name :: !problems;
        (* the daemon never reads a spill back; decode it once, outside
           the op, to price the read path *)
        if Sys.file_exists spill then begin
          snap_bytes := float_of_int (Unix.stat spill).Unix.st_size :: !snap_bytes;
          match Spans.record spans "snapshot.decode" (fun () -> Shift.Snapshot.load spill) with
          | Ok _ -> ()
          | Error e -> problems := ("spill did not decode: " ^ e) :: !problems
        end;
        incr op)
      (shuffle rng jobs)
  done;
  if Sys.file_exists spill then Sys.remove spill;
  let all = Spans.spans spans in
  let n = float_of_int !op in
  let total name = sum Fun.id (Spans.durations all name) in
  let p50 name = ms (Pct.get ~p:0.5 (Spans.durations all name)) in
  let sumk f = Hashtbl.fold (fun _ s acc -> acc +. f s) per_kernel 0. in
  List.iter
    (fun (m, span) -> M.set t m (p50 span))
    [
      ("compiler.build_ms_p50", "compiler.build");
      ("session.start_ms_p50", "session.start");
      ("snapshot.capture_ms_p50", "snapshot.capture");
      ("snapshot.restore_ms_p50", "snapshot.restore");
      ("snapshot.encode_ms_p50", "snapshot.encode");
      ("snapshot.decode_ms_p50", "snapshot.decode");
    ];
  M.set t "compiler.images" 1.;
  M.set t "snapshot.bytes_p50" (Pct.get ~p:0.5 !snap_bytes);
  M.set t "snapshot.parks" (float_of_int (Hashtbl.fold (fun _ s a -> a + s.parks) per_kernel 0) /. n);
  M.set t "protocol.parse_us_p50" (1e3 *. p50 "protocol.parse");
  M.set t "protocol.encode_us_p50" (1e3 *. p50 "protocol.encode");
  M.set t "protocol.response_bytes" (Pct.get ~p:0.5 !responses);
  let ops = sum Spans.duration (List.filter (fun s -> s.Spans.name = "bench.op") all) in
  let per x = ms x /. n in
  M.set t "migrate.capture_ms_per_job" (per (total "snapshot.capture"));
  M.set t "migrate.restore_ms_per_job" (per (total "snapshot.restore"));
  M.set t "migrate.spill_ms_per_job" (per (total "snapshot.encode"));
  M.set t "migrate.rewarm_ms_per_job"
    (per (sumk (fun s -> s.migrated_adv -. s.straight_adv)));
  M.set t "migrate.total_ms_per_job" (per (ops -. sumk (fun s -> s.straight)));
  (* block-cache counters restart with every restored session, so they
     are summed over every stretch *)
  machine_counters ~per:n ~stretches:!stretches t !finals;
  self_time_metrics t ~title:"serve-migrate self time per op (one migrated job, replayed in-process)"
    all;
  let rounds = float_of_int rounds in
  let kernel_ms name kernel =
    ms
      (sum Spans.duration
         (List.filter
            (fun sp ->
              sp.Spans.name = name && Hashtbl.find_opt op_kernel sp.Spans.op = Some kernel)
            all))
    /. rounds
  in
  print_table ~title:"serve-migrate migration cost per job, host ms (Session-level replay)"
    ~columns:[ "kernel"; "straight"; "capture"; "spill"; "restore"; "re-warm"; "parks" ]
    (List.map
       (fun ((k : Spec.kernel), _) ->
         let s = sums k.Spec.name in
         [
           k.Spec.name;
           f1 (ms s.straight /. rounds);
           f1 (kernel_ms "snapshot.capture" k.Spec.name);
           f1 (kernel_ms "snapshot.encode" k.Spec.name);
           f1 (kernel_ms "snapshot.restore" k.Spec.name);
           f1 (ms (s.migrated_adv -. s.straight_adv) /. rounds);
           f1 (float_of_int s.parks /. rounds);
         ])
       jobs
    @ [
        [
          "mean";
          f1 (per (sumk (fun s -> s.straight)));
          f1 (per (total "snapshot.capture"));
          f1 (per (total "snapshot.encode"));
          f1 (per (total "snapshot.restore"));
          f1 (per (sumk (fun s -> s.migrated_adv -. s.straight_adv)));
          f1 (float_of_int (Hashtbl.fold (fun _ s a -> a + s.parks) per_kernel 0) /. n);
        ];
      ]);
  !problems

let run (a : args) =
  let rng = Random.State.make [| a.seed |] in
  let sched = schedule ~rng ~seconds:a.seconds in
  let setup_s, (refs, d) =
    repeated_setup
      ~dispose:(fun (_, d) -> stop d)
      (fun () ->
        let refs = solo () in
        let d = spawn () in
        (match warm_up d refs with () -> () | exception e -> kill d.pid; raise e);
        (refs, d))
  in
  let p =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () -> open_loop d refs sched)
  in
  List.iter (fun w -> log "serve-migrate: check failed: %s" w) p.problems;
  let late = Openloop.lateness p.ol in
  log "serve-migrate: %d requests at %.0f ms interarrival; generator late p90 %.2f ms, max in flight %d, daemon busy %.0f%%"
    (Array.length sched) (ms interarrival)
    (ms (fst (Pct.capped ~p:0.9 late)))
    (Openloop.max_in_flight p.ol)
    (100. *. p.cpu /. Openloop.wall p.ol);
  let attempted = Array.length sched in
  let failed = p.bad + (attempted - Openloop.completed p.ol) in
  if not a.trace then
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        end_to_end ~setup_s ~peak_rss_mb:p.rss ~instructions:p.instrs
          ~elapsed:(Openloop.wall p.ol) ~cpu_s:p.cpu (Openloop.latencies p.ol);
    }
  else begin
    let t = M.table M.per_layer in
    M.set t "gen.late_ms_p90" (ms (fst (Pct.capped ~p:0.9 late)));
    M.set t "gen.max_in_flight" (float_of_int (Openloop.max_in_flight p.ol));
    let s = in_process refs sched in
    M.set t "sched.queue_wait_ms_p90" (ms (Pct.get ~p:0.9 s.queue_wait));
    M.set t "sched.slice_ms_p99" (ms (fst (Pct.capped ~p:0.99 s.slices)));
    M.set t "sched.busy_share" s.busy_share;
    M.set t "sched.migrations" s.migrations;
    M.set t "session.advance_ms_p50" (ms (Pct.get ~p:0.5 s.slices));
    M.set t "session.advance_ms_p99" (ms (fst (Pct.capped ~p:0.99 s.slices)));
    M.set t "trace.overhead"
      (ratio (Pct.get ~p:0.5 s.lat) (Pct.get ~p:0.5 (Openloop.latencies p.ol)));
    let spans = Spans.create ~enabled:true () in
    let replayed = replay t spans refs ~rng ~rounds:3 in
    cleanup_run_dir ();
    let problems = p.problems @ s.sched_problems @ replayed in
    List.iter (fun w -> log "serve-migrate: check failed: %s" w) (s.sched_problems @ replayed);
    {
      correct = problems = [] && failed = 0;
      attempted = attempted + Array.length sched;
      failed = failed + List.length s.sched_problems + List.length replayed;
      metrics = t;
    }
  end
