(* Shared plumbing for the three workloads: arguments, the result
   line, repeated set-up, seeded permutations, report digests and the
   per-layer self-time table. *)

module J = Shift.Results
module M = Hostbench.Metrics
module Pct = Hostbench.Pct
module Spans = Hostbench.Spans
module Procstat = Hostbench.Procstat
module Mode = Shift_compiler.Mode
module Spec = Shift_workloads.Spec
module Policy = Shift_policy.Policy
module Stats = Shift_machine.Stats
module Backend = Shift_tracking.Backend
module Session = Shift.Session
module Report = Shift.Report

let now = Unix.gettimeofday
let ms s = 1e3 *. s

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* what one workload run produced: op counts and the filled table *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : M.table;
}

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Think time.  Both closed loops pause after each op for as long as
   the op took, so the host core is busy about half the time, the load
   the serve-migrate daemon runs at.  On a shared host a core kept 100%
   busy drifts between fast and slow phases, and which phase a run
   lands in moved op latency by up to a third from run to run; at half
   load the same ops repeated several times more tightly (NOTES.md).
   Returns the time actually slept, which the rates leave out. *)
let think busy =
  let t0 = now () in
  Unix.sleepf busy;
  now () -. t0

(* The set-up is timed [reps] times and the median reported, so one
   slow repetition (first-touch page faults, a noisy neighbour) does
   not move setup_s.  Each repetition is followed by its think time, as
   the timed ops are.  [dispose] tears down every repetition but the
   last, whose products the run goes on to use. *)
let setup_reps = 5

let repeated_setup ?(reps = setup_reps) ?(dispose = ignore) f =
  let rec go i times =
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    ignore (think dt);
    if i >= reps then (Pct.median (dt :: times), v)
    else begin
      dispose v;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

(* Fisher-Yates under the run's seed: the seed permutes op order and
   nothing else *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let digest (r : Report.t) = J.to_string (J.of_report r)
let instructions (r : Report.t) = r.Report.stats.Stats.instructions
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0. then 0. else a /. b

let print_table ~title ~columns rows =
  Printf.printf "\n%s\n" title;
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length c) rows)
      columns
  in
  let line cells =
    print_string
      (String.concat "  "
         (List.mapi (fun i c -> Printf.sprintf "%*s" (List.nth widths i) c) cells));
    print_newline ()
  in
  line columns;
  List.iter line rows

let f1 = Printf.sprintf "%.1f"
let f3 = Printf.sprintf "%.3f"

(* End-to-end figures shared by every workload.  [op_s] are the timed
   ops' latencies; the p90 is refused (Pct.get raises) when the run
   holds fewer than 100 ops.  [elapsed] is the timed phase's wall time
   less the think time. *)
let end_to_end ~setup_s ~peak_rss_mb ~instructions ~elapsed ~cpu_s op_s =
  let t = M.table M.end_to_end in
  let n = float_of_int (List.length op_s) in
  M.set t "setup_s" setup_s;
  M.set t "peak_rss_mb" peak_rss_mb;
  M.set t "sim_mips" (float_of_int instructions /. elapsed /. 1e6);
  M.set t "ops_per_s" (n /. elapsed);
  M.set t "op_ms_p50" (ms (Pct.get ~p:0.5 op_s));
  M.set t "op_ms_p90" (ms (Pct.get ~p:0.9 op_s));
  M.set t "cpu_ms_per_op" (ms cpu_s /. n);
  t

(* Self time per layer over the traced ops (spans whose op id is >= 0),
   as ms per op, plus the share of op time some layer accounts for.
   Each op is wrapped in a "bench.op" span, so the "bench" layer is
   what no layer below claims.  Prints the stacked table too. *)
let self_time_metrics t ~title spans =
  let ops = List.filter (fun s -> s.Spans.name = "bench.op") spans in
  let n = float_of_int (max 1 (List.length ops)) in
  let total = sum Spans.duration ops in
  let by_layer = Spans.self_by_layer ~ops:(fun op -> op >= 0) spans in
  let self l = Option.value (List.assoc_opt l by_layer) ~default:0. in
  List.iter
    (fun l -> M.set t (Printf.sprintf "self.%s_ms_per_op" l) (ms (self l) /. n))
    M.self_layers;
  M.set t "trace.attributed_share" (1. -. ratio (self "bench") total);
  print_table ~title
    ~columns:[ "layer"; "self ms/op"; "share" ]
    (List.map
       (fun l ->
         [ l; f3 (ms (self l) /. n); Printf.sprintf "%.1f%%" (100. *. ratio (self l) total) ])
       M.self_layers
    @ [ [ "op"; f3 (ms total /. n); "100.0%" ] ])

let print_result ~workload (o : outcome) =
  Printf.printf "\n%s: %d ops attempted, %d failed, correct=%b\n" workload
    o.attempted o.failed o.correct;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-30s %16.4f %s\n" name v unit)
    (M.values o.metrics);
  print_endline
    (J.to_string ~minify:true
       (J.Obj
          [
            ("correct", J.Bool o.correct);
            ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
                   (M.values o.metrics)) );
          ]));
  flush stdout

(* Per-layer counters every workload reads off its finished sessions.
   Counts are divided by [per], the units of work [lives] span.  The
   superblock counters are host-side and start afresh in a restored
   session, so a migrated job passes every stretch as [stretches]. *)
let machine_counters ?(per = 1.) ?stretches t lives =
  let sb =
    Stats.sb_total
      (List.map Session.superblock_stats (Option.value stretches ~default:lives))
  in
  let hits, misses =
    List.fold_left
      (fun (h, m) l ->
        let h', m' = Session.cache_stats l in
        (h + h', m + m'))
      (0, 0) lives
  in
  let reports = List.map Session.report lives in
  let fi = float_of_int in
  let count n = fi n /. per in
  M.set t "machine.sb_hit_ratio"
    (ratio (fi sb.Stats.sb_hits) (fi (sb.Stats.sb_hits + sb.Stats.sb_misses)));
  M.set t "machine.sb_compiled" (count sb.Stats.sb_compiled);
  M.set t "machine.sb_fallback" (count sb.Stats.sb_fallback);
  M.set t "machine.sb_invalidations" (count sb.Stats.sb_invalidations);
  M.set t "machine.cache_hit_ratio" (ratio (fi hits) (fi (hits + misses)));
  M.set t "mem.loads" (count (isum (fun r -> r.Report.stats.Stats.loads) reports));
  M.set t "mem.stores" (count (isum (fun r -> r.Report.stats.Stats.stores) reports))
