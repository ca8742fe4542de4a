(* forensics: an analyst's audit loop, closed and in-process.

   An op is one identical audit sweep: every Attacks.all and
   Attacks.multiproc case on its exploit and its benign input, traced
   at byte granularity with the Flowtrace exported through Flow.jsonl,
   then Leak.detect on aes-table and aes-ct with a fixed variant count.
   The seed permutes the order of the cases inside a sweep and nothing
   else, so every op does the same work and op latency has one mode.
   Per-session compilation, Flowtrace, Hwtrace, the OS model's
   fork/exec/pipe, JSON export and Leak dominate; superblocks stay
   cold, and Snapshot and the scheduler are idle. *)

open Common
module Case = Shift_attacks.Attack_case

let mode = Mode.shift_byte
let variants = 4
let cases = Shift_attacks.Attacks.all @ Shift_attacks.Attacks.multiproc
let runs = List.concat_map (fun c -> [ (c, true); (c, false) ]) cases
let leaks = [ ("aes-table", true); ("aes-ct", false) ]
let trace = Shift.Flowtrace.default_options

type sweep = {
  problems : string list;
  lives : Session.live list;  (** the case sessions *)
  leak_lives : Session.live list;
  jsonl_bytes : int;
}

let check_case (c : Case.t) ~exploit live =
  let r = Session.report live in
  match (exploit, r.Report.outcome) with
  | true, Report.Alert a when a.Shift_policy.Alert.policy = c.Case.expected_policy -> None
  | false, Report.Exited _ when not (Report.detected r) -> None
  | _ ->
      Some
        (Format.asprintf "%s (%s): %a" c.Case.program_name
           (if exploit then "exploit" else "benign")
           Report.pp_outcome r.Report.outcome)

let sweep spans ~rng ~op =
  Spans.set_op spans op;
  let result =
    Spans.record spans "bench.op" (fun () ->
        let problems = ref [] and lives = ref [] and leak_lives = ref [] in
        let bytes = ref 0 in
        List.iter
          (fun ((c : Case.t), exploit) ->
            let input = if exploit then c.Case.exploit else c.Case.benign in
            let image, config =
              Spans.record spans "compiler.build" (fun () ->
                  (Case.image ~mode c, Case.config ~trace ~mode ~input c))
            in
            let live =
              Spans.record spans "session.start" (fun () -> Session.start ~config image)
            in
            let run = if c.Case.multiproc = None then "session.advance" else "os.multiproc" in
            ignore (Spans.record spans run (fun () -> Session.advance live ~budget:max_int));
            let jsonl =
              Spans.record spans "flow.jsonl" (fun () ->
                  Shift.Flow.jsonl ?outcome:(Session.outcome live)
                    (Option.get (Session.flowtrace live)))
            in
            bytes := !bytes + String.length jsonl;
            lives := live :: !lives;
            Option.iter (fun p -> problems := p :: !problems) (check_case c ~exploit live))
          (shuffle rng runs);
        List.iter
          (fun (name, expect_leak) ->
            match Shift_catalog.Catalog.leak_start ~mode name with
            | Error e -> problems := e :: !problems
            | Ok start ->
                let start i =
                  let l = Spans.record spans "session.start" (fun () -> start i) in
                  leak_lives := l :: !leak_lives;
                  l
                in
                let v =
                  Spans.record spans "leak.detect" (fun () ->
                      Shift.Leak.detect ~count:variants ~start ())
                in
                if v.Shift.Leak.v_leak <> expect_leak then
                  problems :=
                    Printf.sprintf "leak %s: verdict leak=%b" name v.Shift.Leak.v_leak
                    :: !problems)
          (shuffle rng leaks);
        { problems = !problems; lives = !lives; leak_lives = !leak_lives; jsonl_bytes = !bytes })
  in
  Spans.set_op spans (-1);
  result

type phase = {
  lats : float list;
  traced_lats : float list;  (** sweeps run with spans on *)
  plain_lats : float list;  (** and with spans off *)
  elapsed : float;  (** wall time less think time *)
  cpu : float;
  instrs : int;
  failed_ops : int;
  problems : string list;
  last : sweep;
}

(* Sweeps, each followed by its think time, until [seconds] have
   elapsed and there are enough for a p90.  Spans go to [spans] on even
   sweeps only, so a traced run times sweeps with and without spans side
   by side. *)
let measure spans ~rng ~seconds ~min_ops =
  let lats = ref [] and traced = ref [] and plain = ref [] in
  let instrs = ref 0 and failed = ref 0 and problems = ref [] in
  let n = ref 0 and last = ref None and slept = ref 0. in
  let t0 = now () and cpu0 = Procstat.self_cpu_s () in
  while now () -. t0 < seconds || !n < min_ops do
    let spans = if !n land 1 = 0 then spans else Spans.disabled in
    let s0 = now () in
    let s = sweep spans ~rng ~op:!n in
    let l = now () -. s0 in
    slept := !slept +. think l;
    lats := l :: !lats;
    if Spans.enabled spans then traced := l :: !traced else plain := l :: !plain;
    instrs :=
      !instrs + isum (fun l -> instructions (Session.report l)) (s.lives @ s.leak_lives);
    if s.problems <> [] then begin
      incr failed;
      problems := s.problems @ !problems
    end;
    last := Some s;
    incr n
  done;
  {
    lats = !lats;
    traced_lats = !traced;
    plain_lats = !plain;
    elapsed = now () -. t0 -. !slept;
    cpu = Procstat.self_cpu_s () -. cpu0;
    instrs = !instrs;
    failed_ops = !failed;
    problems = List.sort_uniq compare !problems;
    last = Option.get !last;
  }

(* ---- the traced run's ablations: the sweep's case sessions again with
   Flowtrace off, Hwtrace on and superblocks off, next to the default
   (Flowtrace on) twin ---- *)

let ablate t ~reps =
  let cells = [ "flowtrace"; "no-flowtrace"; "hwtrace"; "sb-off" ] in
  (* per cell, one total per rep; the reported figure is the median rep,
     and the cell order rotates each rep so no cell always runs first *)
  let secs = Hashtbl.create 8 in
  let rep_secs = Hashtbl.create 8 in
  let add n s = Hashtbl.replace rep_secs n (s +. Option.value (Hashtbl.find_opt rep_secs n) ~default:0.) in
  let problems = ref [] and entries = ref 0 in
  for rep = 1 to reps do
    Hashtbl.reset rep_secs;
    let cells =
      List.filteri (fun j _ -> j >= rep mod 4) cells @ List.filteri (fun j _ -> j < rep mod 4) cells
    in
    List.iter
      (fun ((c : Case.t), exploit) ->
        let input = if exploit then c.Case.exploit else c.Case.benign in
        let image = Case.image ~mode c in
        let cfg n =
          match n with
          | "no-flowtrace" -> Case.config ~mode ~input c
          | "hwtrace" -> Case.config ~trace ~hwtrace:true ~mode ~input c
          | "sb-off" -> Case.config ~trace ~superblocks:false ~mode ~input c
          | _ -> Case.config ~trace ~mode ~input c
        in
        let reports =
          List.map
            (fun n ->
              let config = cfg n in
              let t0 = now () in
              let live = Session.start ~config image in
              ignore (Session.advance live ~budget:max_int);
              add n (now () -. t0);
              if rep = 1 && n = "hwtrace" then
                Option.iter
                  (fun h ->
                    entries :=
                      !entries + Shift_machine.Hwtrace.length h
                      + Shift_machine.Hwtrace.dropped h)
                  (Session.hwtrace live);
              (n, Session.report live))
            cells
        in
        let r n = List.assoc n reports in
        let policy (r : Report.t) =
          Option.map (fun a -> a.Shift_policy.Alert.policy) (Report.alert r)
        in
        let name = c.Case.program_name ^ if exploit then " exploit" else " benign" in
        if digest (r "hwtrace") <> digest (r "flowtrace") then
          problems := (name ^ ": hwtrace on changed the report") :: !problems;
        if digest (r "sb-off") <> digest (r "flowtrace") then
          problems := (name ^ ": superblocks off changed the report") :: !problems;
        if
          J.to_string (J.of_stats (r "no-flowtrace").Report.stats)
          <> J.to_string (J.of_stats (r "flowtrace").Report.stats)
          || policy (r "no-flowtrace") <> policy (r "flowtrace")
        then problems := (name ^ ": flowtrace on changed the counters") :: !problems)
      runs;
    Hashtbl.iter
      (fun n s -> Hashtbl.replace secs n (s :: Option.value (Hashtbl.find_opt secs n) ~default:[]))
      rep_secs
  done;
  let s n = Pct.median (Hashtbl.find secs n) in
  M.set t "flowtrace.on_over_off" (ratio (s "flowtrace") (s "no-flowtrace"));
  M.set t "hwtrace.on_over_off" (ratio (s "hwtrace") (s "flowtrace"));
  M.set t "hwtrace.entries" (float_of_int !entries);
  M.set t "machine.sb_speedup" (ratio (s "sb-off") (s "flowtrace"));
  let per n = ms (s n) in
  print_table ~title:"forensics case sessions, host ms per sweep (start + run)"
    ~columns:[ "Flowtrace off"; "Flowtrace on"; "+Hwtrace"; "superblocks off" ]
    [ [ f1 (per "no-flowtrace"); f1 (per "flowtrace"); f1 (per "hwtrace"); f1 (per "sb-off") ] ];
  List.sort_uniq compare !problems

let run (a : args) =
  let rng = Random.State.make [| a.seed |] in
  let min_ops = Pct.min_samples ~p:0.9 in
  (* set-up is a warm-up sweep: code paged in, heap grown *)
  let setup_s, warm = repeated_setup (fun () -> sweep Spans.disabled ~rng ~op:(-1)) in
  let warm_failed = if warm.problems = [] then 0 else 1 in
  if not a.trace then begin
    let p = measure Spans.disabled ~rng ~seconds:a.seconds ~min_ops in
    List.iter (fun w -> log "forensics: check failed: %s" w) (warm.problems @ p.problems);
    {
      correct = p.failed_ops + warm_failed = 0;
      attempted = List.length p.lats;
      failed = p.failed_ops;
      metrics =
        end_to_end ~setup_s
          ~peak_rss_mb:(Procstat.peak_rss_mb (Unix.getpid ()))
          ~instructions:p.instrs ~elapsed:p.elapsed ~cpu_s:p.cpu p.lats;
    }
  end
  else begin
    let t = M.table M.per_layer in
    let spans = Spans.create ~enabled:true () in
    let traced = measure spans ~rng ~seconds:a.seconds ~min_ops in
    let all = Spans.spans spans in
    let p50 name = ms (fst (Pct.capped ~p:0.5 (Spans.durations all name))) in
    M.set t "compiler.build_ms_p50" (p50 "compiler.build");
    M.set t "compiler.images" (float_of_int (List.length runs));
    M.set t "session.start_ms_p50" (p50 "session.start");
    M.set t "session.advance_ms_p50" (p50 "session.advance");
    M.set t "session.advance_ms_p99"
      (ms (fst (Pct.capped ~p:0.99 (Spans.durations all "session.advance"))));
    M.set t "os.multiproc_ms_p50" (p50 "os.multiproc");
    M.set t "flow.jsonl_ms_p50" (p50 "flow.jsonl");
    M.set t "flow.jsonl_bytes" (float_of_int traced.last.jsonl_bytes);
    M.set t "leak.detect_ms_p50" (p50 "leak.detect");
    M.set t "leak.sessions" (float_of_int (List.length traced.last.leak_lives));
    M.set t "flowtrace.events"
      (float_of_int
         (isum
            (fun l ->
              match Session.flowtrace l with
              | Some ft -> (Shift.Flowtrace.summary ft).Shift.Flowtrace.s_events
              | None -> 0)
            traced.last.lives));
    machine_counters t traced.last.lives;
    M.set t "trace.overhead"
      (ratio (Pct.get ~p:0.5 traced.traced_lats) (Pct.get ~p:0.5 traced.plain_lats));
    self_time_metrics t ~title:"forensics self time per op (one audit sweep)" all;
    let identity = ablate t ~reps:5 in
    let problems = warm.problems @ traced.problems @ identity in
    List.iter (fun w -> log "forensics: check failed: %s" w) problems;
    {
      correct = problems = [];
      attempted = List.length traced.lats;
      failed = traced.failed_ops + List.length identity;
      metrics = t;
    }
  end
