(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 4 for the index).

   Usage:
     main.exe [OPTIONS] [table1|table2|fig6|fig7|fig8|fig9|table3|lift|
               ablation|speculation|throughput|backends|sidechannel|
               bechamel]...

   Options:
     -j N         run the experiment grids on N domains
                  (0 = Domain.recommended_domain_count, the default)
     --json       write one BENCH_<experiment>.json file per experiment
     --json-dir D write the JSON files under directory D (implies --json)

   With no experiment argument, everything runs.  Tables are printed to
   stdout and are byte-identical at every -j; progress and file notes go
   to stderr. *)

open Shift_bench
module Pool = Shift.Pool

let experiments =
  [
    ("table1", Exp_security.table1);
    ("table2", Exp_security.table2);
    ("fig6", Exp_apache.fig6);
    ("fig7", Exp_spec.fig7);
    ("fig8", Exp_spec.fig8);
    ("fig9", Exp_spec.fig9);
    ("table3", Exp_spec.table3);
    ("lift", Exp_spec.lift);
    ("ablation", Exp_spec.ablation);
    ("speculation", Exp_speculation.speculation);
    ("throughput", Exp_throughput.throughput);
    ("backends", Exp_backends.backends);
    ("sidechannel", Exp_sidechannel.sidechannel);
    ("bechamel", Bench_tables.run);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N] [--json] [--json-dir DIR] [experiment]...\n\
     available experiments: %s\n"
    (String.concat ", " (List.map fst experiments));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref 0 in
  let json = ref false in
  let json_dir = ref "." in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 0 -> jobs := v; parse rest
        | _ -> usage ())
    | [ "-j" ] | [ "--jobs" ] -> usage ()
    | "--json" :: rest -> json := true; parse rest
    | "--json-dir" :: dir :: rest -> json := true; json_dir := dir; parse rest
    | [ "--json-dir" ] -> usage ()
    | ("-h" | "--help") :: _ -> usage ()
    | name :: rest ->
        if List.mem_assoc name experiments then begin
          names := name :: !names;
          parse rest
        end
        else begin
          Printf.eprintf "unknown experiment %S\n" name;
          usage ()
        end
  in
  parse args;
  Pool.set_domains !jobs;
  let selected =
    match List.rev !names with
    | [] -> experiments
    | names -> List.map (fun name -> (name, List.assoc name experiments)) names
  in
  if !json && not (Sys.file_exists !json_dir) then Sys.mkdir !json_dir 0o755;
  print_endline "SHIFT reproduction harness (Chen et al., ISCA 2008)";
  print_endline "measured numbers come from the simulated Itanium-like machine;";
  print_endline "paper references are quoted under each table.";
  let domains = Pool.domains () in
  Printf.eprintf "running %d experiment(s) on %d domain(s)\n%!"
    (List.length selected) domains;
  let total0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      let data = f () in
      let wall_clock_s = Unix.gettimeofday () -. t0 in
      Printf.eprintf "%-12s %.2fs\n%!" name wall_clock_s;
      if !json then begin
        let doc = Shift.Results.document ~experiment:name ~domains ~wall_clock_s data in
        let path = Filename.concat !json_dir (Printf.sprintf "BENCH_%s.json" name) in
        let oc = open_out path in
        output_string oc (Shift.Results.to_string doc);
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "wrote %s\n%!" path
      end)
    selected;
  Printf.eprintf "total %.2fs\n%!" (Unix.gettimeofday () -. total0)
