(* The resumable execution engine: the monolithic stepping loop and
   [run_for] must produce byte-identical counters however a run is
   sliced, on one hart or many — and the fleet layer built on top must
   serialise identically at any domain count. *)

open Build
open Build.Infix
module Cpu = Shift_machine.Cpu
module Pipeline = Shift_machine.Pipeline
module Stats = Shift_machine.Stats
module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module World = Shift_os.World
module Spec = Shift_workloads.Spec

let tc = Util.tc
let fuel = 100_000_000
let size = 512

(* everything a run counted, as one comparable string: [Stats.pp]
   renders every counter including the per-provenance slot table *)
let stats_sig (s : Stats.t) = Format.asprintf "%a" Stats.pp s

let report_sig (r : Shift.Report.t) =
  Format.asprintf "%a@ %a" Shift.Report.pp_outcome r.Shift.Report.outcome
    Stats.pp r.Shift.Report.stats

(* A faithful replica of the pre-engine [Cpu.run]: step until done,
   then pull cycles out of the pipeline model.  The differential tests
   below hold the new engine to this loop's exact counters. *)
let monolithic_run ~fuel cpu =
  let rec go fuel =
    if fuel <= 0 then Cpu.Out_of_fuel
    else match Cpu.step cpu with Some o -> o | None -> go (fuel - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      cpu.Cpu.stats.Stats.cycles <- Pipeline.cycles cpu.Cpu.pipe)
    (fun () -> go fuel)

(* ... and of the pre-engine one-shot run: machine + world, monolithic
   loop, raw stats *)
let monolithic_stats image ~setup =
  let cpu = Shift.Session.load image in
  let world =
    World.create ~policy:Policy.default
      ~gran:(Shift.Session.gran_of_mode image.Shift_compiler.Image.mode)
      ()
  in
  setup world;
  cpu.Cpu.syscall_handler <- Some (World.handler world);
  match monolithic_run ~fuel cpu with
  | Cpu.Exited _ -> stats_sig cpu.Cpu.stats
  | o ->
      Alcotest.failf "monolithic reference run did not exit: %s"
        (match o with
        | Cpu.Out_of_fuel -> "out of fuel"
        | Cpu.Faulted (f, ip) ->
            Printf.sprintf "fault %s at %d" (Shift_machine.Fault.to_string f) ip
        | Cpu.Exited _ -> assert false)

let sliced_stats ?threading image ~setup ~budget =
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel ~setup ?threading ()
  in
  let live = Shift.Session.start ~config image in
  let rec drive () =
    match Shift.Session.advance live ~budget with
    | `Yielded -> drive ()
    | `Finished (Shift.Report.Exited _) -> ()
    | `Finished o ->
        Alcotest.failf "sliced run did not exit: %a" Shift.Report.pp_outcome o
  in
  drive ();
  stats_sig (Shift.Session.report live).Shift.Report.stats

let grid_kernels =
  List.filter_map Spec.find [ "gzip"; "gcc"; "mcf"; "bzip2" ]

let grid_modes =
  [ ("uninstr", Mode.Uninstrumented);
    ("word", Mode.shift_word);
    ("byte", Mode.shift_byte) ]

(* the differential acceptance test: for every throughput-grid cell,
   the monolithic loop, the one-shot engine, a finely sliced engine,
   and the single-hart SMP engine agree on every counter *)
let differential_tests =
  List.concat_map
    (fun (k : Spec.kernel) ->
      List.map
        (fun (mode_name, mode) ->
          tc (Printf.sprintf "%s/%s: engine == monolithic loop" k.Spec.name mode_name)
            (fun () ->
              let image = Shift.Session.build ~mode k.Spec.program in
              let setup = Spec.setup ~size ~tainted:true k in
              let reference = monolithic_stats image ~setup in
              let one_shot =
                stats_sig
                  (Shift.Session.exec
                     ~config:
                       (Shift.Session.Config.make ~policy:Policy.default ~fuel
                          ~setup ())
                     image)
                    .Shift.Report.stats
              in
              Util.check_string "one-shot engine" reference one_shot;
              Util.check_string "sliced engine (budget 4096)" reference
                (sliced_stats image ~setup ~budget:4096);
              Util.check_string "sliced engine (budget 1000)" reference
                (sliced_stats image ~setup ~budget:1000);
              let threading = Shift.Session.Config.Threads { quantum = None } in
              let smp =
                stats_sig
                  (Shift.Session.exec
                     ~config:
                       (Shift.Session.Config.make ~policy:Policy.default ~fuel
                          ~setup ~threading ())
                     image)
                    .Shift.Report.stats
              in
              Util.check_string "single-hart SMP engine" reference smp))
        grid_modes)
    grid_kernels

(* spawn/join program for the SMP slicing tests *)
let spawn_prog =
  {
    Ir.globals = [];
    funcs =
      [
        func "worker" ~params:[ "x" ] ~locals:[] [ ret (v "x" *: v "x") ];
        func "main" ~params:[] ~locals:[ scalar "t1"; scalar "t2" ]
          [
            set "t1" (call "sys_spawn" [ fnptr "worker"; i 5 ]);
            set "t2" (call "sys_spawn" [ fnptr "worker"; i 6 ]);
            ret (call "sys_join" [ v "t1" ] +: call "sys_join" [ v "t2" ]);
          ];
      ];
  }

let smp_slicing_tests =
  [
    tc "SMP run is invariant under slicing" (fun () ->
        (* budget boundaries land mid-quantum; the scheduler must resume
           the exact same interleaving *)
        let image = Shift.Session.build ~mode:Mode.shift_word spawn_prog in
        let threading = Shift.Session.Config.Threads { quantum = Some 7 } in
        let reference =
          report_sig
            (Shift.Session.exec
               ~config:
                 (Shift.Session.Config.make ~policy:Policy.default ~fuel
                    ~threading ())
               image)
        in
        List.iter
          (fun budget ->
            let config =
              Shift.Session.Config.make ~policy:Policy.default ~fuel ~threading
                ()
            in
            let live = Shift.Session.start ~config image in
            let rec drive () =
              match Shift.Session.advance live ~budget with
              | `Yielded -> drive ()
              | `Finished _ -> ()
            in
            drive ();
            Util.check_string
              (Printf.sprintf "budget %d" budget)
              reference
              (report_sig (Shift.Session.report live)))
          [ 1; 7; 13; 1000 ]);
    tc "engine memoises the finished outcome" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word spawn_prog in
        let config =
          Shift.Session.Config.make ~policy:Policy.default ~fuel
            ~threading:(Shift.Session.Config.Threads { quantum = None })
            ()
        in
        let live = Shift.Session.start ~config image in
        let rec drive () =
          match Shift.Session.advance live ~budget:1000 with
          | `Yielded -> drive ()
          | `Finished o -> o
        in
        let first = drive () in
        let again =
          match Shift.Session.advance live ~budget:1000 with
          | `Finished o -> o
          | `Yielded -> Alcotest.fail "finished session yielded"
        in
        Util.check_string "same outcome"
          (Format.asprintf "%a" Shift.Report.pp_outcome first)
          (Format.asprintf "%a" Shift.Report.pp_outcome again));
  ]

(* the fleet layer: deterministic ordered results at any domain count *)
let fleet_jobs =
  List.concat_map
    (fun name ->
      let k = Option.get (Spec.find name) in
      List.map
        (fun (mode_name, mode) ->
          Shift.Fleet.job
            ~name:(Printf.sprintf "%s/%s" name mode_name)
            ~config:
              (Shift.Session.Config.make ~policy:Policy.default ~fuel
                 ~setup:(Spec.setup ~size:256 ~tainted:true k)
                 ())
            (fun () -> Shift.Session.build ~mode k.Spec.program))
        [ ("uninstr", Mode.Uninstrumented); ("word", Mode.shift_word) ])
    [ "gzip"; "mcf" ]

let fleet_tests =
  [
    tc "fleet results keep job order and all exit" (fun () ->
        let fleet = Shift.Fleet.run ~domains:2 fleet_jobs in
        Util.check_int "sessions" (List.length fleet_jobs)
          (List.length fleet.Shift.Fleet.results);
        Util.check_int "exited" (List.length fleet_jobs) fleet.Shift.Fleet.exited;
        List.iter2
          (fun expected (r : Shift.Fleet.result) ->
            Util.check_string "order" expected r.Shift.Fleet.name)
          [ "gzip/uninstr"; "gzip/word"; "mcf/uninstr"; "mcf/word" ]
          fleet.Shift.Fleet.results);
    tc "fleet JSON is byte-identical at -j1 and -j4" (fun () ->
        let render f = Shift.Results.to_string (Shift.Fleet.to_json f) in
        let j1 = render (Shift.Fleet.run ~domains:1 fleet_jobs) in
        let j4 = render (Shift.Fleet.run ~domains:4 fleet_jobs) in
        Util.check_string "serialised fleet" j1 j4);
    tc "fleet totals are the element-wise sum of the runs" (fun () ->
        let fleet = Shift.Fleet.run ~domains:2 fleet_jobs in
        let expect =
          Stats.total
            (List.filter_map
               (fun (r : Shift.Fleet.result) ->
                 match r.Shift.Fleet.outcome with
                 | Shift.Fleet.Finished report ->
                     Some report.Shift.Report.stats
                 | Shift.Fleet.Crashed _ -> None)
               fleet.Shift.Fleet.results)
        in
        Util.check_string "totals" (stats_sig expect)
          (stats_sig fleet.Shift.Fleet.stats));
  ]

let suites =
  [
    ("engine.differential", differential_tests);
    ("engine.smp", smp_slicing_tests);
    ("engine.fleet", fleet_tests);
  ]
