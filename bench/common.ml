(* Shared machinery for the experiment harness. *)

module Mode = Shift_compiler.Mode
module Spec = Shift_workloads.Spec
module Httpd = Shift_workloads.Httpd
module Policy = Shift_policy.Policy
module Stats = Shift_machine.Stats
module Results = Shift.Results

(* the harness batches through the core library's pool directly (the
   old bench/pool.ml shim is gone) *)
module Pool = Shift.Pool

let fuel = 1_000_000_000

(* ---------- kernel runs, memoised across experiments ---------- *)

type krun = {
  report : Shift.Report.t;
  image : Shift_compiler.Image.t;
}

(* The memo is shared by every domain of the pool, so lookups and
   inserts are mutex-guarded; the runs themselves happen outside the
   lock so independent keys build and run concurrently.  Two domains
   racing on the same key at worst both compute it — the run is pure
   given (kernel, mode, tainted), so whichever insert lands last stores
   the same numbers. *)

let cache_lock = Mutex.create ()
let kernel_cache : (string, krun) Hashtbl.t = Hashtbl.create 64

let cache_key (k : Spec.kernel) mode tainted =
  Printf.sprintf "%s/%s/%b" k.Spec.name (Mode.to_string mode) tainted

let image_of_kernel (k : Spec.kernel) mode =
  Shift.Session.build ~mode k.Spec.program

let run_kernel ?(tainted = true) (k : Spec.kernel) mode =
  let key = cache_key k mode tainted in
  let cached = Mutex.protect cache_lock (fun () -> Hashtbl.find_opt kernel_cache key) in
  match cached with
  | Some r -> r
  | None ->
      let image = image_of_kernel k mode in
      let report =
        Shift.Session.exec
          ~config:
            (Shift.Session.Config.make ~policy:Policy.default ~fuel
               ~setup:(Spec.setup ~tainted k) ())
          image
      in
      (match report.Shift.Report.outcome with
      | Shift.Report.Exited _ -> ()
      | o ->
          Printf.eprintf "kernel %s under %s did not finish: %s\n%!" k.Spec.name
            (Mode.to_string mode)
            (Format.asprintf "%a" Shift.Report.pp_outcome o));
      let r = { report; image } in
      Mutex.protect cache_lock (fun () -> Hashtbl.replace kernel_cache key r);
      r

let cycles_of ?tainted k mode = (run_kernel ?tainted k mode).report.Shift.Report.stats.Stats.cycles

let slowdown ?tainted k mode =
  float_of_int (cycles_of ?tainted k mode)
  /. float_of_int (cycles_of ~tainted:false k Mode.Uninstrumented)

(* Populate the memo for a (kernel, mode, tainted) grid through the
   domain pool, so the serial table-printing code below each experiment
   only ever hits the cache.  Already-cached combos cost a lookup. *)
let warm combos =
  ignore (Pool.map (fun (k, mode, tainted) -> ignore (run_kernel ~tainted k mode)) combos)

(* ---------- modes ---------- *)

let word = Mode.shift_word
let byte = Mode.shift_byte
let word_enh1 = Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh1 }
let byte_enh1 = Mode.Shift { granularity = Shift_mem.Granularity.Byte; enh = Mode.enh1 }
let word_both = Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh_both }
let byte_both = Mode.Shift { granularity = Shift_mem.Granularity.Byte; enh = Mode.enh_both }
let dbt = Mode.Software_dbt { granularity = Shift_mem.Granularity.Word }

(* ---------- output helpers ---------- *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let table ~columns rows =
  let widths =
    List.mapi
      (fun c title ->
        List.fold_left (fun w row -> max w (String.length (List.nth row c)))
          (String.length title) rows)
      columns
  in
  let print_row cells =
    let padded = List.map2 (fun w s -> Printf.sprintf "%-*s" w s) widths cells in
    Printf.printf "  %s\n" (String.concat "  " padded)
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let geomean values =
  exp (List.fold_left (fun acc v -> acc +. log v) 0. values /. float_of_int (List.length values))

let pct x = Printf.sprintf "%.1f%%" (x *. 100.)
let f2 x = Printf.sprintf "%.2f" x

(* ---------- JSON payload helpers ---------- *)

(* One cached run as a JSON record: identity, cycles and slot breakdown
   (via the report), and the slowdown against the uninstrumented
   baseline. *)
let run_json ?(tainted = true) k mode =
  let r = run_kernel ~tainted k mode in
  Results.Obj
    [
      ("kernel", Results.String k.Spec.name);
      ("mode", Results.String (Mode.to_string mode));
      ("tainted", Results.Bool tainted);
      ("slowdown", Results.Float (slowdown ~tainted k mode));
      ("report", Results.of_report r.report);
    ]

(* The generic grid payload: every (kernel, mode, tainted) run plus the
   per-(mode, tainted) geometric-mean slowdowns. *)
let grid_json ~kernels ~cells =
  let runs =
    List.concat_map
      (fun k -> List.map (fun (mode, tainted) -> run_json ~tainted k mode) cells)
      kernels
  in
  let means =
    List.map
      (fun (mode, tainted) ->
        Results.Obj
          [
            ("mode", Results.String (Mode.to_string mode));
            ("tainted", Results.Bool tainted);
            ( "geomean_slowdown",
              Results.Float (geomean (List.map (fun k -> slowdown ~tainted k mode) kernels)) );
          ])
      cells
  in
  Results.Obj [ ("runs", Results.List runs); ("geomeans", Results.List means) ]
