module Stats = Shift_machine.Stats

type job = {
  name : string;
  image : unit -> Shift_compiler.Image.t;
  config : Session.Config.t;
  deadline : int option;
}

let job ?(config = Session.Config.default) ?deadline ~name image =
  { name; image; config; deadline }

let name (j : job) = j.name

let with_deadline d (j : job) =
  {
    j with
    deadline = Some (match j.deadline with None -> d | Some d' -> min d d');
  }

type crash = { exn : string; backtrace : string; attempts : int }
type outcome = Finished of Report.t | Crashed of crash
type result = { name : string; outcome : outcome }

type t = {
  results : result list;
  stats : Stats.t;
  exited : int;
  alerted : int;
  faulted : int;
  timed_out : int;
  crashed : int;
}

let count p results = List.length (List.filter p results)

let effective_config (j : job) =
  match j.deadline with
  | None -> j.config
  | Some d -> { j.config with Session.Config.fuel = min j.config.Session.Config.fuel d }

(* ---------- the single-job supervised driver ---------- *)

let start (j : job) = Session.start ~config:(effective_config j) (j.image ())

type step =
  | Done of Report.t
  | Parked of Snapshot.t
  | Failed of { exn : string; backtrace : string }

(* One supervised stretch of one job's session: start it (or restore it
   from [resume]), advance it in [slice]-sized budgets, and stop at the
   first of (a) the run finishing — [Done], (b) [park_after] yielded
   slices elapsing — the session is frozen and handed back as [Parked],
   which is how the serve scheduler migrates a job between workers, or
   (c) anything raising — contained as [Failed] rather than escaping.
   [checkpoint_slices] refreshes a checkpoint through [on_checkpoint]
   after every yielded slice (the crash-recovery pattern [run] uses);
   [on_slice] observes each [Session.advance] call's host-side wall
   clock, which is how the serve layer measures slice latency.  Slicing,
   parking and restoring never change results: the engine's counters are
   byte-identical however a run is cut (test/test_snapshot.ml). *)
let step ?(slice = max_int) ?park_after ?(checkpoint_slices = false)
    ?on_checkpoint ?resume ?on_slice (j : job) =
  let checkpoint live =
    let snap = Session.checkpoint live in
    Option.iter (fun f -> f snap) on_checkpoint;
    snap
  in
  let timed live =
    match on_slice with
    | None -> Session.advance live ~budget:slice
    | Some f ->
        let t0 = Unix.gettimeofday () in
        let r = Session.advance live ~budget:slice in
        f (Unix.gettimeofday () -. t0);
        r
  in
  match
    let live =
      match resume with
      | Some snap -> Session.restore snap
      | None -> start j
    in
    let rec loop yields =
      match timed live with
      | `Finished _ -> Done (Session.report live)
      | `Yielded -> (
          let yields = yields + 1 in
          match park_after with
          | Some k when yields >= k -> Parked (checkpoint live)
          | _ ->
              if checkpoint_slices then ignore (checkpoint live);
              loop yields)
    in
    loop 0
  with
  | result -> result
  | exception e ->
      Failed
        {
          exn = Printexc.to_string e;
          backtrace =
            Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ());
        }

(* One job under supervision: any exception out of the image thunk, the
   session machinery or a syscall handler is contained as [Crashed]
   instead of tearing down the whole batch.  With [retries], a failed
   attempt restarts from the last checkpoint (or from scratch when
   checkpointing is off or nothing was checkpointed yet). *)
let exec_job ~retries ~checkpoint_every (j : job) =
  let slice, checkpoint_slices =
    match checkpoint_every with Some n when n > 0 -> (n, true) | _ -> (max_int, false)
  in
  let last = ref None in
  let rec attempt n =
    match
      step ~slice ~checkpoint_slices
        ~on_checkpoint:(fun snap -> last := Some snap)
        ?resume:!last j
    with
    | Done report -> Finished report
    | Parked _ ->
        failwith "Fleet.exec_job: step parked a job with no park_after set"
    | Failed { exn; backtrace } ->
        if n < retries then attempt (n + 1)
        else Crashed { exn; backtrace; attempts = n + 1 }
  in
  attempt 0

let aggregate results =
  let reports =
    List.filter_map
      (fun r -> match r.outcome with Finished rep -> Some rep | Crashed _ -> None)
      results
  in
  let of_outcome p =
    count
      (fun r ->
        match r.outcome with
        | Finished rep -> p rep.Report.outcome
        | Crashed _ -> false)
      results
  in
  {
    results;
    stats = Stats.total (List.map (fun (rep : Report.t) -> rep.Report.stats) reports);
    exited = of_outcome (function Report.Exited _ -> true | _ -> false);
    alerted = of_outcome (function Report.Alert _ -> true | _ -> false);
    faulted = of_outcome (function Report.Fault _ -> true | _ -> false);
    timed_out = of_outcome (function Report.Timeout -> true | _ -> false);
    crashed =
      count (fun r -> match r.outcome with Crashed _ -> true | _ -> false) results;
  }

let run ?domains ?(retries = 0) ?checkpoint_every jobs =
  aggregate
    (Pool.map ?domains
       (fun (j : job) ->
         { name = j.name; outcome = exec_job ~retries ~checkpoint_every j })
       jobs)

let to_json t =
  Results.Obj
    [
      ("sessions", Results.Int (List.length t.results));
      ("exited", Results.Int t.exited);
      ("alerts", Results.Int t.alerted);
      ("faults", Results.Int t.faulted);
      ("timeouts", Results.Int t.timed_out);
      ("crashed", Results.Int t.crashed);
      ( "totals",
        Results.Obj
          [
            ("instructions", Results.Int t.stats.Stats.instructions);
            ("cycles", Results.Int t.stats.Stats.cycles);
            ("loads", Results.Int t.stats.Stats.loads);
            ("stores", Results.Int t.stats.Stats.stores);
            ("io_cycles", Results.Int t.stats.Stats.io_cycles);
          ] );
      ( "runs",
        Results.List
          (List.map
             (fun r ->
               Results.Obj
                 (("name", Results.String r.name)
                 ::
                 (match r.outcome with
                 | Finished rep -> [ ("report", Results.of_report rep) ]
                 | Crashed c ->
                     (* the backtrace is host-specific, so it stays out
                        of the (diffable) JSON *)
                     [
                       ( "crashed",
                         Results.Obj
                           [
                             ("exn", Results.String c.exn);
                             ("attempts", Results.Int c.attempts);
                           ] );
                     ])))
             t.results) );
    ]

let pp ppf t =
  let line name outcome (s : Stats.t) =
    Format.fprintf ppf "%-14s %-14s %12d %12d %10d %10d@," name outcome
      s.Stats.instructions s.Stats.cycles s.Stats.loads s.Stats.stores
  in
  Format.fprintf ppf "@[<v>%-14s %-14s %12s %12s %10s %10s@," "session" "outcome"
    "instructions" "cycles" "loads" "stores";
  List.iter
    (fun r ->
      match r.outcome with
      | Finished rep ->
          line r.name
            (Format.asprintf "%a" Report.pp_outcome rep.Report.outcome)
            rep.Report.stats
      | Crashed c ->
          Format.fprintf ppf "%-14s crashed (%d attempts): %s@," r.name
            c.attempts c.exn)
    t.results;
  line "TOTAL"
    (Printf.sprintf "%d ok/%d bad" t.exited
       (t.alerted + t.faulted + t.timed_out + t.crashed))
    t.stats;
  Format.fprintf ppf "@]"
