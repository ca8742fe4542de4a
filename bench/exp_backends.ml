(* Backend cost model: SHIFT's on-core nat tracking vs its successors.

   The tracking-backend refactor (lib/tracking) lets one session run
   under three architectures: [none] (uninstrumented baseline), [nat]
   (the paper's design — taint rides the NaT bits, propagation is
   instrumentation in the guest itself) and [coproc] (a decoupled tag
   coprocessor draining a bounded asynchronous tag queue, the
   architecture of SHIFT's successors — see PAPERS.md).  This
   experiment costs the three against each other on the SPEC-like
   kernel grid plus the Httpd workload, and records two exact,
   CI-gated verdicts:

   - [nat_identical_to_seed]: a run under [--backend nat] produces a
     report byte-identical to the default run path that predates the
     backend interface, with the superblock compiler both on and off —
     the refactor is invisible to the paper numbers;
   - [coproc_detects_all_attacks]: every Table-2 exploit still raises
     an alert when checks resolve asynchronously at queue-drain time,
     and every benign input stays clean.  The per-case drain lag (in
     retired instructions) is the detection-lag cost of decoupling. *)

open Common
module J = Shift.Results
module Stats = Shift_machine.Stats
module Tracking = Shift.Tracking
module Backend = Shift.Backend
module Case = Shift_attacks.Attack_case

let kernels = Spec.all
let all_backends = [ Backend.Off; Backend.Nat; Backend.Coproc ]

(* the requested mode; non-nat backends map it to Uninstrumented *)
let requested_mode = word

(* copy the coprocessor's mutable counters before the live session is
   dropped *)
type qstats = {
  enqueued : int;
  drained : int;
  stalls : int;
  stall_cycles : int;
  qchecks : int;
  qalerts : int;
  max_lag : int;
  last_alert_lag : int;
}

let qstats_of (s : Tracking.stats) =
  {
    enqueued = s.Tracking.enqueued;
    drained = s.Tracking.drained;
    stalls = s.Tracking.stalls;
    stall_cycles = s.Tracking.stall_cycles;
    qchecks = s.Tracking.checks;
    qalerts = s.Tracking.alerts;
    max_lag = s.Tracking.max_lag;
    last_alert_lag = s.Tracking.last_alert_lag;
  }

let qstats_json q =
  J.Obj
    [
      ("enqueued", J.Int q.enqueued);
      ("drained", J.Int q.drained);
      ("stalls", J.Int q.stalls);
      ("stall_cycles", J.Int q.stall_cycles);
      ("checks", J.Int q.qchecks);
      ("alerts", J.Int q.qalerts);
      ("max_lag", J.Int q.max_lag);
      ("last_alert_lag", J.Int q.last_alert_lag);
    ]

let run_backend ?(superblocks = true) ~backend (k : Spec.kernel) =
  let mode = Shift.Session.effective_mode ~backend requested_mode in
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel
      ~setup:(Spec.setup ~tainted:true k) ~superblocks ~backend ()
  in
  let live =
    Shift.Session.start ~config (Shift.Session.build ~backend ~mode k.Spec.program)
  in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  let q =
    match backend with
    | Backend.Coproc -> Some (qstats_of (Tracking.stats (Shift.Session.tracking live)))
    | Backend.Nat | Backend.Off -> None
  in
  (Shift.Session.report live, q)

(* the pre-backend run path: a session config with no backend, exactly
   what the harness ran before lib/tracking existed *)
let run_seed ?(superblocks = true) (k : Spec.kernel) =
  Shift.Session.exec
    ~config:
      (Shift.Session.Config.make ~policy:Policy.default ~fuel
         ~setup:(Spec.setup ~tainted:true k) ~superblocks ())
    (image_of_kernel k requested_mode)

let report_bytes r = J.to_string (J.of_report r)

(* ---------- the attack suite under the coprocessor ---------- *)

let attack_coproc ~benign (c : Case.t) =
  let backend = Backend.Coproc in
  let mode = Shift.Session.effective_mode ~backend requested_mode in
  let setup = if benign then c.Case.benign else c.Case.exploit in
  let config =
    Shift.Session.Config.make ~policy:c.Case.policy ~setup ~backend ()
  in
  let live =
    Shift.Session.start ~config (Shift.Session.build ~backend ~mode c.Case.program)
  in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  let report = Shift.Session.report live in
  let alerted =
    match report.Shift.Report.outcome with
    | Shift.Report.Alert _ -> true
    | _ -> false
  in
  (alerted, report, qstats_of (Tracking.stats (Shift.Session.tracking live)))

(* ---------- the queue-knob sweep ---------- *)

(* one coproc run with explicit queue knobs; [None] = model default *)
let run_coproc_knobs ?capacity ?drain_rate ?stall_penalty (k : Spec.kernel) =
  let backend = Backend.Coproc in
  let mode = Shift.Session.effective_mode ~backend requested_mode in
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel
      ~setup:(Spec.setup ~tainted:true k) ~backend ?coproc_capacity:capacity
      ?coproc_drain_rate:drain_rate ?coproc_stall_penalty:stall_penalty ()
  in
  let live =
    Shift.Session.start ~config (Shift.Session.build ~backend ~mode k.Spec.program)
  in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  (Shift.Session.report live, qstats_of (Tracking.stats (Shift.Session.tracking live)))

type sweep_point = {
  axis : string;  (* which knob this point varies *)
  capacity : int;
  drain_rate : int;
  stall_penalty : int;
  cycles : int;
  q : qstats;
}

(* Shrink the queue until the core stalls (the knee), vary the drain
   rate at the default capacity, and price the stalls once the queue is
   too small to hide them. *)
let capacities = [ 4; 8; 16; 32; 64; 128; Tracking.default_capacity ]
let drain_rates = [ 1; Tracking.default_drain_rate; 4; 8 ]
let stall_penalties = [ 1; Tracking.default_stall_penalty; 16; 64 ]

let sweep_points () =
  (* at the default drain rate the coprocessor keeps up with retirement
     and every capacity is equally invisible, so the capacity axis is
     swept at drain rate 1 — the regime where the queue is under
     pressure and its depth decides whether bursts stall the core *)
  List.map (fun c -> ("capacity", Some c, Some 1, None)) capacities
  @ List.map (fun d -> ("drain_rate", None, Some d, None)) drain_rates
  (* penalty only matters while stalling: pin the pressured drain rate *)
  @ List.map (fun p -> ("stall_penalty", None, Some 1, Some p)) stall_penalties

let run_sweep k =
  Pool.map
    (fun (axis, cap, dr, sp) ->
      let r, q = run_coproc_knobs ?capacity:cap ?drain_rate:dr ?stall_penalty:sp k in
      {
        axis;
        capacity = Option.value cap ~default:Tracking.default_capacity;
        drain_rate = Option.value dr ~default:Tracking.default_drain_rate;
        stall_penalty = Option.value sp ~default:Tracking.default_stall_penalty;
        cycles = r.Shift.Report.stats.Stats.cycles;
        q;
      })
    (sweep_points ())

(* The stall knee: the smallest swept capacity whose stall cycles are
   within 1% of the deepest queue's.  Below it the shallow queue turns
   propagation bursts into extra force-drain stalls; past it a deeper
   queue buys the core nothing (under sustained overload the residual
   stalls are the enqueue-drain rate gap, which no capacity absorbs). *)
let knee_of sweep =
  let caps = List.filter (fun p -> p.axis = "capacity") sweep in
  let floor_cycles = (List.nth caps (List.length caps - 1)).q.stall_cycles in
  match
    List.find_opt
      (fun p -> p.q.stall_cycles <= floor_cycles + (floor_cycles / 100))
      caps
  with
  | Some p -> p
  | None -> List.nth caps (List.length caps - 1)

let sweep_point_json p =
  J.Obj
    [
      ("axis", J.String p.axis);
      ("capacity", J.Int p.capacity);
      ("drain_rate", J.Int p.drain_rate);
      ("stall_penalty", J.Int p.stall_penalty);
      ("cycles", J.Int p.cycles);
      ("stalls", J.Int p.q.stalls);
      ("stall_cycles", J.Int p.q.stall_cycles);
      ("max_lag", J.Int p.q.max_lag);
    ]

(* ---------- the experiment ---------- *)

let backend_name = Backend.to_string

let backends () =
  header "Backends: uninstrumented vs SHIFT (nat) vs tag coprocessor";
  (* the kernel grid, every (kernel, backend) cell through the pool *)
  let grid =
    Pool.map
      (fun ((k : Spec.kernel), backend) ->
        let report, q = run_backend ~backend k in
        (k.Spec.name, backend, report, q))
      (List.concat_map
         (fun k -> List.map (fun b -> (k, b)) all_backends)
         kernels)
  in
  (* the Httpd workload row (serial: it drives its own slices) *)
  let httpd =
    List.map
      (fun backend ->
        let r =
          Httpd.serve ~mode:requested_mode ~file_size:4096 ~requests:10
            ~backend ()
        in
        ("httpd", backend, r, None))
      all_backends
  in
  let rows = grid @ httpd in
  let cycles_of_cell workload backend =
    match
      List.find_opt (fun (w, b, _, _) -> w = workload && b = backend) rows
    with
    | Some (_, _, r, _) -> r.Shift.Report.stats.Stats.cycles
    | None -> 0
  in
  let overhead workload backend =
    let base = cycles_of_cell workload Backend.Off in
    if base = 0 then 0.
    else float_of_int (cycles_of_cell workload backend) /. float_of_int base
  in
  table
    ~columns:[ "workload"; "backend"; "cycles"; "overhead"; "queue (max lag)" ]
    (List.map
       (fun (w, b, (r : Shift.Report.t), q) ->
         [
           w;
           backend_name b;
           string_of_int r.Shift.Report.stats.Stats.cycles;
           Printf.sprintf "%.2fx" (overhead w b);
           (match q with
           | Some q ->
               Printf.sprintf "%d recs, lag <= %d, %d stalls" q.enqueued
                 q.max_lag q.stalls
           | None -> "-");
         ])
       rows);
  let workloads = List.map (fun (k : Spec.kernel) -> k.Spec.name) kernels in
  let mean b = geomean (List.map (fun w -> overhead w b) workloads) in
  note "geomean kernel overhead vs none: nat %.2fx, coproc %.2fx" (mean Backend.Nat)
    (mean Backend.Coproc);
  note "nat pays instrumented guest code; coproc runs the guest";
  note "uninstrumented and pays only queue-full stalls, trading detection";
  note "latency (the drain lag) for throughput.";
  (* identity verdict: nat == the pre-backend run path, superblocks on
     for the whole grid and off for the interpreter smoke pair *)
  let identity_cells =
    List.map (fun k -> (k, true)) kernels
    @ List.filter_map
        (fun name -> Option.map (fun k -> (k, false)) (Spec.find name))
        [ "gzip"; "mcf" ]
  in
  let identity =
    Pool.map
      (fun ((k : Spec.kernel), superblocks) ->
        let nat, _ = run_backend ~superblocks ~backend:Backend.Nat k in
        let seed = run_seed ~superblocks k in
        (k.Spec.name, superblocks, report_bytes nat = report_bytes seed))
      identity_cells
  in
  let nat_identical = List.for_all (fun (_, _, ok) -> ok) identity in
  List.iter
    (fun (name, sb, ok) ->
      if not ok then
        note "IDENTITY FAILURE: %s (superblocks %b) nat report differs" name sb)
    identity;
  note "nat vs pre-backend run path: %s"
    (if nat_identical then "byte-identical" else "MISMATCH");
  (* security verdict: the whole Table-2 suite under the coprocessor *)
  let attacks =
    Pool.map
      (fun (c : Case.t) ->
        let detected, _, exploit_q = attack_coproc ~benign:false c in
        let benign_alerted, _, _ = attack_coproc ~benign:true c in
        (c.Case.program_name, detected, not benign_alerted, exploit_q))
      Shift_attacks.Attacks.all
  in
  let coproc_detects =
    List.for_all (fun (_, det, clean, _) -> det && clean) attacks
  in
  table
    ~columns:[ "attack case"; "exploit"; "benign"; "alert lag"; "max lag" ]
    (List.map
       (fun (name, det, clean, q) ->
         [
           name;
           (if det then "detected" else "MISSED");
           (if clean then "clean" else "FALSE ALARM");
           string_of_int q.last_alert_lag;
           string_of_int q.max_lag;
         ])
       attacks);
  note "coproc detection: %s; the lag columns are drain lags in retired"
    (if coproc_detects then "all detected, no false alarms" else "FAILURE");
  note "instructions (bounded by the %d-record queue)."
    Tracking.default_capacity;
  (* queue-knob sweep on one kernel: capacity, drain rate, stall penalty *)
  let sweep_kernel =
    match Spec.find "gzip" with Some k -> k | None -> List.hd kernels
  in
  let sweep = run_sweep sweep_kernel in
  let knee = knee_of sweep in
  table
    ~columns:
      [ "axis"; "capacity"; "drain"; "penalty"; "cycles"; "stalls";
        "stall cycles"; "max lag" ]
    (List.map
       (fun p ->
         [
           p.axis;
           string_of_int p.capacity;
           string_of_int p.drain_rate;
           string_of_int p.stall_penalty;
           string_of_int p.cycles;
           string_of_int p.q.stalls;
           string_of_int p.q.stall_cycles;
           string_of_int p.q.max_lag;
         ])
       sweep);
  note "queue sweep on %s: the stall knee is capacity %d (%d stall cycles) —"
    sweep_kernel.Spec.name knee.capacity knee.q.stall_cycles;
  note "shallower queues turn propagation bursts into extra force-drain";
  note "stalls; deeper ones buy nothing the drain rate doesn't already.";
  J.Obj
    [
      ( "rows",
        J.List
          (List.map
             (fun (w, b, (r : Shift.Report.t), q) ->
               J.Obj
                 ([
                    ("workload", J.String w);
                    ("backend", J.String (backend_name b));
                    ("cycles", J.Int r.Shift.Report.stats.Stats.cycles);
                    ("instructions", J.Int r.Shift.Report.stats.Stats.instructions);
                    ("overhead_vs_none", J.Float (overhead w b));
                  ]
                 @ match q with Some q -> [ ("coproc", qstats_json q) ] | None -> []))
             rows) );
      ( "geomeans",
        J.List
          (List.map
             (fun b ->
               J.Obj
                 [
                   ("backend", J.String (backend_name b));
                   ("geomean_overhead_vs_none", J.Float (mean b));
                 ])
             all_backends) );
      ( "identity",
        J.List
          (List.map
             (fun (name, sb, ok) ->
               J.Obj
                 [
                   ("kernel", J.String name);
                   ("superblocks", J.Bool sb);
                   ("identical", J.Bool ok);
                 ])
             identity) );
      ( "attacks",
        J.List
          (List.map
             (fun (name, det, clean, q) ->
               J.Obj
                 [
                   ("case", J.String name);
                   ("exploit_detected", J.Bool det);
                   ("benign_clean", J.Bool clean);
                   ("coproc", qstats_json q);
                 ])
             attacks) );
      ( "coproc_sweep",
        J.Obj
          [
            ("workload", J.String sweep_kernel.Spec.name);
            ("points", J.List (List.map sweep_point_json sweep));
            ("stall_knee", sweep_point_json knee);
          ] );
      ("nat_identical_to_seed", J.Bool nat_identical);
      ("coproc_detects_all_attacks", J.Bool coproc_detects);
    ]
