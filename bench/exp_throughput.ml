(* Throughput microbenchmark: simulated MIPS per workload x mode.

   Unlike the paper-reproduction experiments, this one measures the
   *simulator itself*: how many simulated instructions per host second
   the engine retires on each workload.  It exists so interpreter and
   superblock-compiler speedups (and regressions) show up in the
   recorded bench trajectory (BENCH_throughput.json) instead of only in
   anecdotes.

   Every cell is measured twice — once with the superblock compiler
   live (the default engine) and once pinned to the pure interpreter
   (--no-superblocks) — so the JSON records the speedup ratio on the
   same host, same process, same inputs.  Two verdicts are CI-gated:

   - [superblock_consistent]: a superblock run's full report is
     byte-identical to the interpreter run's (the compiler is a pure
     optimisation);
   - [superblock_speedup_ok]: the geometric-mean speedup over the grid
     clears the floor below.  The ratio of two wall-clocks on one host
     is host-independent enough to gate on, unlike the MIPS columns.
     No tier-1 test can hold a wall-clock floor, so this one lives
     here. *)

open Common
module J = Shift.Results
module Stats = Shift_machine.Stats

let kernels = List.filter_map Spec.find [ "gzip"; "gcc"; "mcf"; "bzip2" ]
let modes = [ ("uninstr", Mode.Uninstrumented); ("word", word); ("byte", byte) ]

(* the CI floor on the geometric-mean superblock speedup; measured
   1.42-1.56x on the grid (see EXPERIMENTS.md) — the on/off ratio
   understates the compiler because shared wins (the cache set mask,
   the word-width memory paths) speed the interpreter column too.  The
   floor only catches the compiler being disabled or badly
   regressed. *)
let speedup_floor = 1.3

let fresh_run ?(superblocks = true) k mode =
  (* bypass the kernel memo: we time the run, so it must be fresh *)
  let image = image_of_kernel k mode in
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel
      ~setup:(Spec.setup ~tainted:true k) ~superblocks ()
  in
  let t0 = Unix.gettimeofday () in
  let live = Shift.Session.start ~config image in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  let wall = Unix.gettimeofday () -. t0 in
  (Shift.Session.report live, Shift.Session.superblock_stats live, wall)

let mips (stats : Stats.t) wall =
  if wall <= 0. then 0. else float_of_int stats.Stats.instructions /. wall /. 1e6

let stats_json (s : Stats.t) =
  J.Obj
    [
      ("instructions", J.Int s.Stats.instructions);
      ("cycles", J.Int s.Stats.cycles);
      ("loads", J.Int s.Stats.loads);
      ("stores", J.Int s.Stats.stores);
    ]

let sb_json (sb : Stats.superblocks) =
  J.Obj
    [
      ("compiled", J.Int sb.Stats.sb_compiled);
      ("hits", J.Int sb.Stats.sb_hits);
      ("misses", J.Int sb.Stats.sb_misses);
      ("invalidations", J.Int sb.Stats.sb_invalidations);
      ("fallback", J.Int sb.Stats.sb_fallback);
    ]

let report_bytes r = J.to_string (J.of_report r)

type run = {
  kname : string;
  mode_name : string;
  report : Shift.Report.t;  (* the superblock run's *)
  sb : Stats.superblocks;
  wall : float;  (* superblocks on *)
  interp_wall : float;  (* superblocks off *)
  identical : bool;  (* full reports byte-identical on vs off *)
}

let speedup r = if r.wall <= 0. then 0. else r.interp_wall /. r.wall

let throughput () =
  header "Throughput: simulated MIPS per workload x mode (host-dependent)";
  let runs =
    List.concat_map
      (fun k ->
        List.map
          (fun (mode_name, mode) ->
            let report, sb, wall = fresh_run k mode in
            let interp_report, _, interp_wall =
              fresh_run ~superblocks:false k mode
            in
            {
              kname = k.Spec.name;
              mode_name;
              report;
              sb;
              wall;
              interp_wall;
              identical = report_bytes report = report_bytes interp_report;
            })
          modes)
      kernels
  in
  table
    ~columns:
      [
        "kernel"; "mode"; "instructions"; "sim MIPS"; "interp MIPS"; "speedup";
        "report";
      ]
    (List.map
       (fun r ->
         let s = r.report.Shift.Report.stats in
         [
           r.kname;
           r.mode_name;
           string_of_int s.Stats.instructions;
           Printf.sprintf "%.2f" (mips s r.wall);
           Printf.sprintf "%.2f" (mips s r.interp_wall);
           Printf.sprintf "%.2fx" (speedup r);
           (if r.identical then "identical" else "MISMATCH");
         ])
       runs);
  note "simulated MIPS = simulated instructions / host wall-clock; like the";
  note "bechamel suite this experiment is serial and its timing columns are";
  note "host-dependent.  The simulated counters are exactly reproducible,";
  note "and the speedup column is a same-host ratio.";
  let sb_identical = List.for_all (fun r -> r.identical) runs in
  let mean_speedup = geomean (List.map speedup runs) in
  note "superblocks vs interpreter: reports %s, geomean speedup %.2fx (floor %.1fx)"
    (if sb_identical then "identical" else "MISMATCH")
    mean_speedup speedup_floor;
  J.Obj
    [
      ( "runs",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("kernel", J.String r.kname);
                   ("mode", J.String r.mode_name);
                   ("stats", stats_json r.report.Shift.Report.stats);
                   ("wall_s", J.Float r.wall);
                   ("sim_mips", J.Float (mips r.report.Shift.Report.stats r.wall));
                   ("interp_wall_s", J.Float r.interp_wall);
                   ( "interp_mips",
                     J.Float (mips r.report.Shift.Report.stats r.interp_wall) );
                   ("superblock_speedup", J.Float (speedup r));
                   ("superblocks", sb_json r.sb);
                   ("report_identical", J.Bool r.identical);
                 ])
             runs) );
      ("superblock_consistent", J.Bool sb_identical);
      ("superblock_geomean_speedup", J.Float mean_speedup);
      ("superblock_speedup_ok", J.Bool (sb_identical && mean_speedup >= speedup_floor));
    ]
