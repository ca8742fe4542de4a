(* Bechamel micro-benchmarks: one Test.make per table/figure, measuring
   the wall-clock cost of (a scaled-down run of) each experiment's
   workload on the simulator. *)

open Bechamel
open Toolkit
open Common

let small k = { k with Spec.default_size = max 64 (k.Spec.default_size / 8) }

let run_small k mode =
  let image = Shift.Session.build ~mode k.Spec.program in
  fun () ->
    ignore
      (Shift.Session.exec
         ~config:
           (Shift.Session.Config.make ~policy:Policy.default ~fuel
              ~setup:(Spec.setup ~tainted:true (small k)) ())
         image)

let run_attack () =
  let c = List.hd Shift_attacks.Attacks.all in
  ignore
    (Shift.Session.exec
       ~config:
         (Shift.Session.Config.make ~policy:c.Shift_attacks.Attack_case.policy
            ~setup:c.Shift_attacks.Attack_case.exploit ~fuel ())
       (Shift.Session.build ~mode:word c.Shift_attacks.Attack_case.program))

let run_httpd_small =
  let image = Shift.Session.build ~mode:word Httpd.program in
  fun () ->
    ignore
      (Shift.Session.exec
         ~config:
           (Shift.Session.Config.make ~policy:Httpd.policy ~io_cost:Httpd.io_cost
              ~fuel
              ~setup:(Httpd.setup ~file_size:4096 ~requests:2)
              ())
         image)

let tests () =
  let gzip = List.hd Spec.all in
  let mcf = Option.get (Spec.find "mcf") in
  Test.make_grouped ~name:"experiments"
    [
      Test.make ~name:"table2-attack-detection" (Staged.stage run_attack);
      Test.make ~name:"fig6-httpd-request" (Staged.stage run_httpd_small);
      Test.make ~name:"fig7-gzip-word" (Staged.stage (run_small gzip word));
      Test.make ~name:"fig8-gzip-word-enhanced" (Staged.stage (run_small gzip word_both));
      Test.make ~name:"fig9-mcf-word" (Staged.stage (run_small mcf word));
      Test.make ~name:"table3-compile-instrument"
        (Staged.stage (fun () -> ignore (Shift.Session.build ~mode:byte gzip.Spec.program)));
      Test.make ~name:"lift-gzip-software-dbt" (Staged.stage (run_small gzip dbt));
    ]

let run () =
  header "Bechamel micro-benchmarks (simulator wall-clock per experiment unit)";
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates = ref [] in
  Hashtbl.iter
    (fun name result ->
      let ns =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Some est
        | _ -> None
      in
      estimates := (name, ns) :: !estimates)
    results;
  let rows =
    List.map
      (fun (name, ns) ->
        [
          name;
          (match ns with
          | Some est -> Printf.sprintf "%.3f ms" (est /. 1e6)
          | None -> "n/a");
        ])
      !estimates
  in
  table ~columns:[ "experiment unit"; "time per run" ] (List.sort compare rows);
  Shift.Results.Obj
    [
      ( "timings",
        Shift.Results.List
          (List.map
             (fun (name, ns) ->
               Shift.Results.Obj
                 [
                   ("name", Shift.Results.String name);
                   ( "ns_per_run",
                     match ns with
                     | Some est -> Shift.Results.Float est
                     | None -> Shift.Results.Null );
                 ])
             (List.sort compare !estimates)) );
    ]
