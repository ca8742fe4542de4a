(* spec-grid: the offline reproduction as a closed loop.

   The 8 Spec kernels at their default sizes, under nat/word, nat/byte
   and coproc, one session at a time on the main domain, each driven by
   Session.advance in slices.  An op is one slice.  A coproc
   instruction costs about six times the host time of a nat one, so
   nat sessions advance 50 000 instructions per slice and coproc
   sessions 8 000: every op then does about the same host work, and the
   latency percentiles fall inside one mode instead of on the boundary
   between a fast and a slow kind of slice.  Op order is a seeded
   permutation of the sessions within each pass, and a run measures
   whole passes, so every run times the same multiset of slices.
   Machine, memory and tracking do almost all the work here. *)

open Common

let cells =
  [
    ("nat-word", Mode.shift_word, Backend.Nat, 50_000);
    ("nat-byte", Mode.shift_byte, Backend.Nat, 50_000);
    ("coproc", Mode.shift_word, Backend.Coproc, 8_000);
  ]

type session = {
  cell : string;
  kernel : Spec.kernel;
  slice : int;
  image : Shift_compiler.Image.t;
  config : Session.Config.t;
}

let config ?(superblocks = true) ?trace ?(hwtrace = false) ~backend k =
  Session.Config.make ~policy:Policy.default
    ~setup:(Spec.setup ~tainted:true k)
    ~superblocks ?trace ~hwtrace ~backend ()

let compile spans (cell, mode, backend, slice) (k : Spec.kernel) =
  {
    cell;
    kernel = k;
    slice;
    image =
      Spans.record spans "compiler.build" (fun () ->
          Session.build ~backend ~mode k.Spec.program);
    config = config ~backend k;
  }

(* Set-up: generate each kernel's input once (the kernel record handed
   to Spec.setup returns it from then on) and compile every image of
   the grid. *)
let build spans =
  let kernels =
    List.map
      (fun (k : Spec.kernel) ->
        let data = k.Spec.input ~size:k.Spec.default_size in
        { k with Spec.input = (fun ~size:_ -> data) })
      Spec.all
  in
  List.concat_map (fun c -> List.map (compile spans c) kernels) cells

let key s = s.cell ^ "/" ^ s.kernel.Spec.name

(* One session to completion, one op per slice, each followed by its
   think time (added to [slept]).  Spans go to [spans] on even ops only,
   so a traced run times slices with and without spans side by side,
   under the same host conditions.  Returns the live session and, per
   slice, its latency and whether spans were on. *)
let run_session spans ~next_op ~slept s =
  let live =
    Spans.record spans "session.start" (fun () ->
        Session.start ~config:s.config s.image)
  in
  let rec go lats =
    let op = next_op () in
    let spans = if op land 1 = 0 then spans else Spans.disabled in
    Spans.set_op spans op;
    let t0 = now () in
    let r =
      Spans.record spans "bench.op" (fun () ->
          Spans.record spans "session.advance" (fun () ->
              Session.advance live ~budget:s.slice))
    in
    let dt = now () -. t0 in
    Spans.set_op spans (-1);
    slept := !slept +. think dt;
    let lats = (dt, Spans.enabled spans) :: lats in
    match r with `Yielded -> go lats | `Finished _ -> lats
  in
  let lats = go [] in
  (live, lats)

type phase = {
  lats : float list;
  traced_lats : float list;  (** slices run with spans on *)
  plain_lats : float list;  (** and with spans off *)
  elapsed : float;  (** wall time less think time *)
  cpu : float;
  instrs : int;
  failed_ops : int;
  last_pass : (session * Session.live) list;
  checks_failed : string list;
}

(* A pass, think time included, takes about this long on the reference
   host (2 cores); the run makes [seconds / nominal_pass_s] passes,
   rounded, at least one.
   The count depends on [seconds] alone, never on how fast this run
   happens to go, so every run with the same [seconds] measures the
   same slices. *)
let nominal_pass_s = 16.

(* Whole passes.  Each session must exit, and its report must match the
   first pass's report of that session byte for byte. *)
let measure spans ~rng ~seconds sessions =
  let refs = Hashtbl.create 32 in
  let ops = ref 0 in
  let next_op () =
    incr ops;
    !ops
  in
  let lats = ref [] and slept = ref 0. in
  let instrs = ref 0 and failed = ref 0 and problems = ref [] in
  let last = ref [] in
  let t0 = now () and cpu0 = Procstat.self_cpu_s () in
  let target = max 1 (int_of_float (Float.round (seconds /. nominal_pass_s))) in
  let passes = ref 0 in
  while !passes < target do
    last :=
      List.map
        (fun s ->
          let live, l = run_session spans ~next_op ~slept s in
          let r = Session.report live in
          lats := List.rev_append l !lats;
          instrs := !instrs + instructions r;
          let d = digest r in
          let ok =
            (match r.Report.outcome with Report.Exited _ -> true | _ -> false)
            &&
            match Hashtbl.find_opt refs (key s) with
            | None ->
                Hashtbl.replace refs (key s) d;
                true
            | Some d0 -> d = d0
          in
          if not ok then begin
            failed := !failed + List.length l;
            problems := Printf.sprintf "%s (pass %d)" (key s) !passes :: !problems
          end;
          (s, live))
        (shuffle rng sessions);
    incr passes
  done;
  let pick traced = List.filter_map (fun (l, t) -> if t = traced then Some l else None) !lats in
  {
    lats = List.map fst !lats;
    traced_lats = pick true;
    plain_lats = pick false;
    elapsed = now () -. t0 -. !slept;
    cpu = Procstat.self_cpu_s () -. cpu0;
    instrs = !instrs;
    failed_ops = !failed;
    last_pass = !last;
    checks_failed = !problems;
  }

(* ---- the traced run's ablation grid ---- *)

(* host seconds to run [image] to completion under [config]; the
   ablation runs its cells back to back, without think time, to keep the
   traced run well inside its time limit *)
let timed_exec image config =
  let t0 = now () in
  let live = Session.start ~config image in
  let rec go () =
    match Session.advance live ~budget:50_000 with `Yielded -> go () | `Finished _ -> ()
  in
  go ();
  (now () -. t0, live)

(* per-cell totals: host seconds, plus the counters the per-layer table
   reads off that cell's sessions (taken at once, so no hardware trace
   outlives its session) *)
type cell_sum = { mutable secs : float; mutable stalls : int; mutable events : int; mutable entries : int }

let counters live =
  ( (Shift_tracking.Tracking.stats (Session.tracking live)).Shift_tracking.Tracking.stalls,
    (match Session.flowtrace live with
    | Some ft -> (Shift.Flowtrace.summary ft).Shift.Flowtrace.s_events
    | None -> 0),
    match Session.hwtrace live with
    | Some h -> Shift_machine.Hwtrace.length h + Shift_machine.Hwtrace.dropped h
    | None -> 0 )

(* Each nat/word session again with superblocks off, backend none,
   Flowtrace on and Hwtrace on, next to its default twin and the
   nat/byte and coproc cells; sb-off and Hwtrace-on reports must equal
   the twin's byte for byte, Flowtrace-on counters must equal its
   counters.  The cell order rotates from kernel to kernel so no cell
   always runs first.  Returns the identity failures. *)
let ablate t sessions =
  let names = [ "none"; "nat-word"; "sb-off"; "flowtrace"; "hwtrace"; "nat-byte"; "coproc" ] in
  let sums = List.map (fun n -> (n, { secs = 0.; stalls = 0; events = 0; entries = 0 })) names in
  let per_kernel = ref [] in
  let problems = ref [] in
  List.iteri
    (fun ki (k : Spec.kernel) ->
      let find cell = List.find (fun s -> s.cell = cell && s.kernel == k) sessions in
      let word = find "nat-word" in
      let none_image =
        Session.build ~backend:Backend.Off ~mode:Mode.shift_word k.Spec.program
      in
      let runs =
        [
          ("none", none_image, config ~backend:Backend.Off k);
          ("nat-word", word.image, word.config);
          ("sb-off", word.image, config ~superblocks:false ~backend:Backend.Nat k);
          ( "flowtrace",
            word.image,
            config ~trace:Shift.Flowtrace.default_options ~backend:Backend.Nat k );
          ("hwtrace", word.image, config ~hwtrace:true ~backend:Backend.Nat k);
          ("nat-byte", (find "nat-byte").image, (find "nat-byte").config);
          ("coproc", (find "coproc").image, (find "coproc").config);
        ]
      in
      let rotated =
        let i = ki mod List.length runs in
        List.filteri (fun j _ -> j >= i) runs @ List.filteri (fun j _ -> j < i) runs
      in
      let results =
        List.map
          (fun (n, image, cfg) ->
            let secs, live = timed_exec image cfg in
            let c = List.assoc n sums in
            let stalls, events, entries = counters live in
            c.secs <- c.secs +. secs;
            c.stalls <- c.stalls + stalls;
            c.events <- c.events + events;
            c.entries <- c.entries + entries;
            (n, (secs, Session.report live)))
          rotated
      in
      let report n = snd (List.assoc n results) in
      let twin = report "nat-word" in
      let same_counters a b =
        J.to_string (J.of_stats a.Report.stats) = J.to_string (J.of_stats b.Report.stats)
        && a.Report.outcome = b.Report.outcome
      in
      if digest (report "sb-off") <> digest twin then
        problems := (k.Spec.name ^ ": superblocks off changed the report") :: !problems;
      if digest (report "hwtrace") <> digest twin then
        problems := (k.Spec.name ^ ": hwtrace on changed the report") :: !problems;
      if not (same_counters (report "flowtrace") twin) then
        problems := (k.Spec.name ^ ": flowtrace on changed the counters") :: !problems;
      per_kernel := (k.Spec.name, List.map (fun (n, (s, _)) -> (n, s)) results) :: !per_kernel)
    (List.filter_map (fun s -> if s.cell = "nat-word" then Some s.kernel else None) sessions);
  let cell n = List.assoc n sums in
  let secs n = (cell n).secs in
  M.set t "tracking.none_ms" (ms (secs "none"));
  M.set t "tracking.nat_word_ms" (ms (secs "nat-word"));
  M.set t "tracking.nat_byte_ms" (ms (secs "nat-byte"));
  M.set t "tracking.coproc_ms" (ms (secs "coproc"));
  M.set t "tracking.coproc_stalls" (float_of_int (cell "coproc").stalls);
  M.set t "machine.sb_speedup" (ratio (secs "sb-off") (secs "nat-word"));
  M.set t "flowtrace.on_over_off" (ratio (secs "flowtrace") (secs "nat-word"));
  M.set t "flowtrace.events" (float_of_int (cell "flowtrace").events);
  M.set t "hwtrace.on_over_off" (ratio (secs "hwtrace") (secs "nat-word"));
  M.set t "hwtrace.entries" (float_of_int (cell "hwtrace").entries);
  (* the host-time counterpart of the paper's Fig. 9: what each layer
     adds on top of the uninstrumented machine, per kernel *)
  let row name cells =
    let c n = ms (List.assoc n cells) in
    [
      name;
      f1 (c "none");
      f1 (c "nat-word" -. c "none");
      f1 (c "nat-word");
      f1 (c "sb-off" -. c "nat-word");
      f1 (c "flowtrace" -. c "nat-word");
      f1 (c "hwtrace" -. c "nat-word");
      f1 (c "nat-byte");
      f1 (c "coproc");
    ]
  in
  let total = List.map (fun n -> (n, secs n)) names in
  print_table ~title:"spec-grid host ms per kernel (nat/word twins; columns 3, 5-7 are deltas)"
    ~columns:
      [ "kernel"; "none"; "+nat"; "nat-word"; "+sb-off"; "+flowtrace"; "+hwtrace"; "nat-byte"; "coproc" ]
    (List.rev_map (fun (n, c) -> row n c) !per_kernel @ [ row "total" total ]);
  !problems

let run (a : args) =
  let rng = Random.State.make [| a.seed |] in
  let spans = Spans.create ~enabled:a.trace () in
  (* a set-up is tens of milliseconds, so it is timed more often *)
  let setup_s, sessions = repeated_setup ~reps:11 (fun () -> build spans) in
  if not a.trace then begin
    let p = measure Spans.disabled ~rng ~seconds:a.seconds sessions in
    List.iter (fun w -> log "spec-grid: check failed: %s" w) p.checks_failed;
    let ops = List.length p.lats in
    {
      correct = p.failed_ops = 0;
      attempted = ops;
      failed = p.failed_ops;
      metrics =
        end_to_end ~setup_s
          ~peak_rss_mb:(Procstat.peak_rss_mb (Unix.getpid ()))
          ~instructions:p.instrs ~elapsed:p.elapsed ~cpu_s:p.cpu p.lats;
    }
  end
  else begin
    let t = M.table M.per_layer in
    let traced = measure spans ~rng ~seconds:a.seconds sessions in
    let all = Spans.spans spans in
    let p50 name = ms (Pct.get ~p:0.5 (Spans.durations all name)) in
    M.set t "compiler.build_ms_p50" (p50 "compiler.build");
    M.set t "compiler.images" (float_of_int (List.length sessions));
    M.set t "session.start_ms_p50" (p50 "session.start");
    M.set t "session.advance_ms_p50" (p50 "session.advance");
    M.set t "session.advance_ms_p99"
      (ms (Pct.get ~p:0.99 (Spans.durations all "session.advance")));
    machine_counters t (List.map snd traced.last_pass);
    M.set t "trace.overhead"
      (ratio (Pct.get ~p:0.5 traced.traced_lats) (Pct.get ~p:0.5 traced.plain_lats));
    self_time_metrics t ~title:"spec-grid self time per op (one slice)" all;
    let identity = ablate t sessions in
    let problems = traced.checks_failed @ identity in
    List.iter (fun w -> log "spec-grid: check failed: %s" w) problems;
    let attempted = List.length traced.lats in
    let failed = traced.failed_ops + List.length identity in
    { correct = problems = []; attempted; failed; metrics = t }
  end
