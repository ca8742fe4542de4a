(* The host-time benchmark.

     main.exe --workload spec-grid|serve-migrate|forensics|all
              --seed N --seconds S --trace 0|1

   prints a human-readable table and, as the last line of standard
   output, one JSON object: {"correct", "attempted", "failed",
   "metrics": {name: {"value", "unit"}}}.  --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones (see NOTES.md).
   `main.exe serve-daemon SOCKET SPILL` is the daemon process the
   serve-migrate workload starts. *)

open Common

let workloads =
  [
    ("spec-grid", Spec_grid.run);
    ("serve-migrate", Serve_migrate.run);
    ("forensics", Forensics.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload spec-grid|serve-migrate|forensics|all --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: t :: rest -> go { a with trace = t = "1" } rest
    | [] -> a
    | _ -> usage ()
  in
  try go { workload = ""; seed = 1; seconds = 10.; trace = false } argv
  with Failure _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve-daemon" :: socket :: spill :: _ -> Serve_migrate.daemon_main ~socket ~spill
  | _ :: args -> (
      let a = parse args in
      match (a.workload, List.assoc_opt a.workload workloads) with
      | _, Some run -> print_result ~workload:a.workload (run a)
      | "all", None ->
          (* every workload in turn, then one line for the lot with
             metric names prefixed by the workload *)
          let outs = List.map (fun (w, run) -> (w, run a)) workloads in
          List.iter (fun (w, o) -> print_result ~workload:w o) outs;
          let merged = M.table (List.concat_map (fun (w, _) ->
              List.map (fun (n, u) -> (w ^ "/" ^ n, u))
                (if a.trace then M.per_layer else M.end_to_end)) workloads) in
          List.iter
            (fun (w, o) ->
              List.iter (fun (n, _, v) -> M.set merged (w ^ "/" ^ n) v) (M.values o.metrics))
            outs;
          print_result ~workload:"all"
            {
              correct = List.for_all (fun (_, o) -> o.correct) outs;
              attempted = isum (fun (_, o) -> o.attempted) outs;
              failed = isum (fun (_, o) -> o.failed) outs;
              metrics = merged;
            }
      | _ -> usage ())
  | [] -> usage ()
