(* Figures 7-9 and Table 3: the SPEC-INT2000-like kernel experiments.

   Each experiment first warms the kernel memo for its (kernel, mode,
   tainted) grid through the domain pool — the runs are independent and
   pure — then prints its table from the cache, serially, so the output
   is byte-identical at any -j.  The returned JSON payload is the
   machine-readable version of the same cached numbers. *)

open Common
module Prov = Shift_isa.Prov
module Image = Shift_compiler.Image
module J = Shift.Results

let kernels = Spec.all

let baseline k = (k, Mode.Uninstrumented, false)

(* ---------- Figure 7 ---------- *)

let fig7_cells = [ (byte, true); (byte, false); (word, true); (word, false) ]

let fig7 () =
  header "Figure 7: SPEC-like kernel slowdown (byte/word x unsafe/safe inputs)";
  warm
    (List.concat_map
       (fun k -> baseline k :: List.map (fun (m, t) -> (k, m, t)) fig7_cells)
       kernels);
  let rows =
    List.map
      (fun k ->
        [
          k.Spec.name;
          f2 (slowdown ~tainted:true k byte);
          f2 (slowdown ~tainted:false k byte);
          f2 (slowdown ~tainted:true k word);
          f2 (slowdown ~tainted:false k word);
        ])
      kernels
  in
  let avg mode tainted = geomean (List.map (fun k -> slowdown ~tainted k mode) kernels) in
  table
    ~columns:[ "kernel"; "byte-unsafe"; "byte-safe"; "word-unsafe"; "word-safe" ]
    (rows
    @ [
        [
          "geo-mean";
          f2 (avg byte true);
          f2 (avg byte false);
          f2 (avg word true);
          f2 (avg word false);
        ];
      ]);
  note "paper: byte-level average 2.81X (range 1.32-4.73X), word-level average";
  note "2.27X (range 1.34-3.80X); byte >= word, unsafe >= safe, and memory-";
  note "bound mcf shows the smallest slowdown.";
  grid_json ~kernels ~cells:fig7_cells

(* ---------- Figure 8 ---------- *)

let fig8_cells =
  [ (byte, true); (byte_enh1, true); (byte_both, true);
    (word, true); (word_enh1, true); (word_both, true) ]

let fig8 () =
  header "Figure 8: impact of the minor architectural enhancements";
  warm
    (List.concat_map
       (fun k -> baseline k :: List.map (fun (m, t) -> (k, m, t)) fig8_cells)
       kernels);
  let rows =
    List.concat_map
      (fun k ->
        let base_b = slowdown k byte and base_w = slowdown k word in
        let sc_b = slowdown k byte_enh1 and sc_w = slowdown k word_enh1 in
        let both_b = slowdown k byte_both and both_w = slowdown k word_both in
        [
          [
            k.Spec.name ^ "/byte";
            f2 base_b;
            f2 sc_b;
            f2 both_b;
            pct (base_b -. both_b);
          ];
          [
            k.Spec.name ^ "/word";
            f2 base_w;
            f2 sc_w;
            f2 both_w;
            pct (base_w -. both_w);
          ];
        ])
      kernels
  in
  table
    ~columns:
      [ "kernel/gran"; "base slowdown"; "+set/clr NaT"; "+both (taint-aware cmp)";
        "slowdown reduction" ]
    rows;
  let red gran base enh =
    geomean (List.map (fun k -> slowdown k base) kernels)
    -. geomean (List.map (fun k -> slowdown k enh) kernels)
    |> fun d -> Printf.sprintf "%s: %.2f" gran d
  in
  note "average slowdown reduction with both enhancements: %s, %s"
    (red "byte" byte byte_both) (red "word" word word_both);
  note "paper: set/clear NaT alone reduces slowdown ~16%%; combining both";
  note "enhancements reduces it 49%%/47%% (byte/word), ranging 2%%-173%% per";
  note "benchmark with gcc gaining most and mcf least.";
  note "(reduction is the difference of slowdown factors, as in the paper)";
  let avg_red base enh =
    geomean (List.map (fun k -> slowdown k base) kernels)
    -. geomean (List.map (fun k -> slowdown k enh) kernels)
  in
  match grid_json ~kernels ~cells:fig8_cells with
  | J.Obj fields ->
      J.Obj
        (fields
        @ [
            ("avg_reduction_byte", J.Float (avg_red byte byte_both));
            ("avg_reduction_word", J.Float (avg_red word word_both));
          ])
  | j -> j

(* ---------- Figure 9 ---------- *)

let fig9 () =
  header "Figure 9: overhead breakdown (computation vs memory access, loads vs stores)";
  warm (List.concat_map (fun k -> [ (k, byte, true); (k, word, true) ]) kernels);
  let rows =
    List.concat_map
      (fun k ->
        List.map
          (fun (gran_name, mode) ->
            let run = run_kernel k mode in
            let stats = run.report.Shift.Report.stats in
            let slots p = Shift_machine.Stats.slots stats p in
            let ld_c = slots Prov.Ld_compute and ld_m = slots Prov.Ld_mem in
            let st_c = slots Prov.St_compute and st_m = slots Prov.St_mem in
            let relax = slots Prov.Cmp_relax and natgen = slots Prov.Nat_gen in
            let total = float_of_int (ld_c + ld_m + st_c + st_m + relax + natgen) in
            let share n = float_of_int n /. total in
            [
              Printf.sprintf "%s/%s" k.Spec.name gran_name;
              pct (share ld_c);
              pct (share ld_m);
              pct (share st_c);
              pct (share st_m);
              pct (share relax);
              pct (share natgen);
            ])
          [ ("byte", byte); ("word", word) ])
      kernels
  in
  table
    ~columns:
      [ "kernel/gran"; "ld-compute"; "ld-bitmap"; "st-compute"; "st-bitmap";
        "cmp-relax"; "nat-gen" ]
    rows;
  note "shares of instrumentation issue slots (the work SHIFT adds).  paper:";
  note "computation dominates memory access (tag-address arithmetic is the";
  note "expensive part; the bitmap mostly hits in L1), and load instrumentation";
  note "outweighs store instrumentation because loads are more frequent.";
  (* run_json's report embeds the full per-provenance slot breakdown *)
  J.Obj
    [
      ( "runs",
        J.List
          (List.concat_map
             (fun k -> [ run_json k byte; run_json k word ])
             kernels) );
    ]

(* ---------- Table 3 ---------- *)

let table3 () =
  header "Table 3: compiler instrumentation impact on code size";
  let modes = [ Mode.Uninstrumented; word; byte ] in
  let images =
    Pool.map
      (fun (k, mode) -> ((k.Spec.name, Mode.to_string mode), image_of_kernel k mode))
      (List.concat_map (fun k -> List.map (fun m -> (k, m)) modes) kernels)
  in
  let image_of k mode = List.assoc (k.Spec.name, Mode.to_string mode) images in
  let runtime_names = Shift_runtime.Runtime.names in
  let size_of image names =
    List.fold_left
      (fun acc (name, n) -> if List.mem name names then acc + n else acc)
      0 image.Image.func_sizes
  in
  let app_size image =
    List.fold_left
      (fun acc (name, n) ->
        if List.mem name runtime_names then acc else acc + n)
      0 image.Image.func_sizes
  in
  let glibc_sizes =
    (* measure the runtime library within any kernel image *)
    let k = List.hd kernels in
    ( size_of (image_of k Mode.Uninstrumented) runtime_names,
      size_of (image_of k word) runtime_names,
      size_of (image_of k byte) runtime_names )
  in
  let glibc_row =
    let orig, w, b = glibc_sizes in
    [
      "runtime (glibc)";
      string_of_int orig;
      string_of_int w;
      pct (float_of_int (w - orig) /. float_of_int orig);
      string_of_int b;
      pct (float_of_int (b - orig) /. float_of_int orig);
    ]
  in
  let kernel_sizes =
    List.map
      (fun k ->
        ( k.Spec.name,
          ( app_size (image_of k Mode.Uninstrumented),
            app_size (image_of k word),
            app_size (image_of k byte) ) ))
      kernels
  in
  let rows =
    List.map
      (fun (name, (orig, w, b)) ->
        [
          name;
          string_of_int orig;
          string_of_int w;
          pct (float_of_int (w - orig) /. float_of_int orig);
          string_of_int b;
          pct (float_of_int (b - orig) /. float_of_int orig);
        ])
      kernel_sizes
  in
  table
    ~columns:
      [ "unit"; "orig (instrs)"; "word"; "word ovh"; "byte"; "byte ovh" ]
    (glibc_row :: rows);
  note "paper: glibc grows 36%%/45%% (word/byte); the benchmarks grow more";
  note "(132%%-288%%) because a larger share of their code is loads, stores and";
  note "compares; byte-level needs more code than word-level everywhere.";
  let unit_json name (orig, w, b) =
    J.Obj
      [
        ("unit", J.String name);
        ("orig_instrs", J.Int orig);
        ("word_instrs", J.Int w);
        ("byte_instrs", J.Int b);
      ]
  in
  J.Obj
    [
      ( "units",
        J.List
          (unit_json "runtime" glibc_sizes
          :: List.map (fun (name, sizes) -> unit_json name sizes) kernel_sizes) );
    ]

(* ---------- LIFT comparison ---------- *)

let lift () =
  header "Software-DBT baseline (LIFT-like) vs SHIFT";
  warm
    (List.concat_map
       (fun k -> [ baseline k; (k, word, true); (k, dbt, true) ])
       kernels);
  let rows =
    List.map
      (fun k ->
        [
          k.Spec.name;
          f2 (slowdown k word);
          f2 (slowdown k dbt);
        ])
      kernels
  in
  table ~columns:[ "kernel"; "SHIFT word"; "software DBT" ] rows;
  note "geo-mean: SHIFT %s vs software %s" (f2 (geomean (List.map (fun k -> slowdown k word) kernels)))
    (f2 (geomean (List.map (fun k -> slowdown k dbt) kernels)));
  note "paper: software-based DIFT costs 4.6X (LIFT, heavily optimized) up to";
  note "37X, vs SHIFT's 2.27X at word level.  Our unoptimized DBT baseline lands";
  note "inside that software range; reusing the deferred-exception hardware";
  note "beats maintaining register tags in software by a wide margin.";
  grid_json ~kernels ~cells:[ (word, true); (dbt, true) ]

(* ---------- compiler-optimization ablations ---------- *)

let ablation () =
  header "Ablation: the SHIFT compiler's optimizations (word level, unsafe)";
  warm (List.concat_map (fun k -> [ baseline k; (k, word, true) ]) kernels);
  let fresh_slowdown options k =
    (* bypass the cache: these options change generated code *)
    let image = Shift.Session.build ~options ~mode:word k.Spec.program in
    let report =
      Shift.Session.exec
        ~config:
          (Shift.Session.Config.make ~policy:Policy.default ~fuel
             ~setup:(Spec.setup ~tainted:true k) ())
        image
    in
    float_of_int report.Shift.Report.stats.Shift_machine.Stats.cycles
    /. float_of_int (cycles_of ~tainted:false k Mode.Uninstrumented)
  in
  let under options = Pool.map (fresh_slowdown options) kernels in
  let default = Shift_compiler.Compile.default_options in
  let optimized = List.map (fun k -> slowdown k word) kernels in
  let no_analysis = under { default with relax_all_compares = true } in
  let no_skip = under { default with skip_save_restore = false } in
  let per_use = under { default with nat_source_strategy = Per_use } in
  let cols =
    List.map2
      (fun (k, o) (na, (ns, pu)) -> (k, o, na, ns, pu))
      (List.combine kernels optimized)
      (List.combine no_analysis (List.combine no_skip per_use))
  in
  let rows =
    List.map
      (fun (k, o, na, ns, pu) -> [ k.Spec.name; f2 o; f2 na; f2 ns; f2 pu ])
      cols
  in
  table
    ~columns:
      [ "kernel"; "optimized"; "relax all compares"; "instrument reg save/restore";
        "NaT source per use" ]
    rows;
  note "the static taint analysis (relax only possibly-tainted compares) and the";
  note "UNAT-carried register save/restore are the two compiler optimizations";
  note "DESIGN.md calls out; both are essential to SHIFT-level overheads.";
  note "\"NaT source per use\" regenerates the tag-source register at every";
  note "tainting site — the strategy the paper's §4.4 measured at ~3X the cost";
  note "of keeping it resident.  In this simulator the extra sequence hides in";
  note "spare issue slots, so the penalty is small: the paper's 3X was Itanium";
  note "scheduling pressure, which a 6-wide in-order model with free slots in";
  note "instrumented code does not reproduce.";
  J.Obj
    [
      ( "kernels",
        J.List
          (List.map
             (fun (k, o, na, ns, pu) ->
               J.Obj
                 [
                   ("kernel", J.String k.Spec.name);
                   ("optimized", J.Float o);
                   ("relax_all_compares", J.Float na);
                   ("instrument_save_restore", J.Float ns);
                   ("nat_source_per_use", J.Float pu);
                 ])
             cols) );
    ]
