(* The observation channel and the speculation-contract leak detector.

   Three contracts under test: the cache model rejects degenerate
   geometry instead of deferring a crash (or silently mislabelling
   lines); the hardware trace is an architectural observation —
   byte-identical with superblocks on or off and across mid-trace
   checkpoint/restore; and the detector flags the lookup-table AES
   kernel (naming the key bytes that steered the diverging access)
   while passing its constant-time twin. *)

module Cache = Shift_machine.Cache
module Hw = Shift_machine.Hwtrace
module Leak = Shift.Leak
module Catalog = Shift_catalog.Catalog
module Mode = Shift_compiler.Mode

let tc = Util.tc

let prop name ?(count = 20) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ---------- cache geometry validation ---------- *)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let geometry_cases =
  [
    tc "zero size_kb rejected" (fun () ->
        expect_invalid "size_kb:0" (fun () -> Cache.create ~size_kb:0 ()));
    tc "negative size_kb rejected" (fun () ->
        expect_invalid "size_kb:-1" (fun () -> Cache.create ~size_kb:(-1) ()));
    tc "zero line_bytes rejected" (fun () ->
        expect_invalid "line_bytes:0" (fun () -> Cache.create ~line_bytes:0 ()));
    tc "non-power-of-two line_bytes rejected" (fun () ->
        expect_invalid "line_bytes:48" (fun () ->
            Cache.create ~line_bytes:48 ()));
    tc "line larger than the cache rejected" (fun () ->
        expect_invalid "line_bytes:32k" (fun () ->
            Cache.create ~size_kb:16 ~line_bytes:(32 * 1024) ()));
    tc "valid geometry still accepted" (fun () ->
        ignore (Cache.create ~size_kb:8 ~line_bytes:32 ()));
    tc "import rejects a line-size mismatch" (fun () ->
        (* same set count (256), different line size: without the
           line_shift check this import would silently diverge the
           hit/miss sequence *)
        let a = Cache.create ~size_kb:16 ~line_bytes:64 () in
        let b = Cache.create ~size_kb:8 ~line_bytes:32 () in
        expect_invalid "line mismatch" (fun () -> Cache.import b (Cache.export a)));
  ]

(* ---------- trace identity ---------- *)

let start_variant ?(superblocks = true) case i =
  match Catalog.leak_start ~superblocks ~mode:Mode.shift_word case with
  | Ok start -> start i
  | Error e -> Alcotest.fail e

let run_to_end live =
  match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> live

let entries live =
  match Shift.Session.hwtrace live with
  | Some hw -> Hw.entries hw
  | None -> Alcotest.fail "session has no hardware trace"

(* observable projection: what ct-seq sees, plus pc and the hit bit,
   which must also be identical (same accesses, same cache state) *)
let obs live =
  Array.to_list
    (Array.map
       (fun (e : Hw.entry) -> (e.Hw.e_pc, e.Hw.e_set, e.Hw.e_hit, e.Hw.e_store))
       (entries live))

let identity_cases =
  [
    prop "hwtrace identical superblocks on/off" ~count:8
      QCheck.(int_bound 7)
      (fun i ->
        obs (run_to_end (start_variant ~superblocks:true "aes-table" i))
        = obs (run_to_end (start_variant ~superblocks:false "aes-table" i)));
    prop "hwtrace identical across mid-trace checkpoint/restore" ~count:6
      QCheck.(pair (int_bound 7) (int_bound 30_000))
      (fun (i, budget) ->
        let unbroken = obs (run_to_end (start_variant "aes-table" i)) in
        let live = start_variant "aes-table" i in
        (match Shift.Session.advance live ~budget:(budget + 1) with
        | `Yielded | `Finished _ -> ());
        (* the trace buffer is observation, not machine state: a restore
           starts an empty buffer, and the full observation is the
           prefix recorded before the checkpoint plus the restored run's
           suffix *)
        let prefix = obs live in
        let snap = Shift.Session.checkpoint live in
        let resumed = run_to_end (Shift.Session.restore snap) in
        prefix @ obs resumed = unbroken);
  ]

(* ---------- the detector ---------- *)

let detect ?clause ?(superblocks = true) ~count case =
  match Catalog.leak_start ~superblocks ~mode:Mode.shift_word case with
  | Ok start -> Leak.detect ?clause ~count ~start ()
  | Error e -> Alcotest.fail e

let detector_cases =
  [
    tc "aes-table leaks under ct-seq, key bytes named" (fun () ->
        let v = detect ~count:3 "aes-table" in
        Alcotest.(check bool) "leak" true v.Leak.v_leak;
        match v.Leak.v_divergence with
        | None -> Alcotest.fail "leak verdict must carry a divergence"
        | Some d ->
            Alcotest.(check bool) "sets differ" true (d.Leak.d_set_base <> d.Leak.d_set_variant);
            let hops = String.concat "; " d.Leak.d_tainted in
            if d.Leak.d_tainted = [] then
              Alcotest.fail "divergence must name the tainted bytes";
            Alcotest.(check bool)
              (Printf.sprintf "hop names the key file (%s)" hops)
              true
              (List.exists
                 (fun h -> Str_exists.contains h "input file:key.bin[")
                 d.Leak.d_tainted));
    tc "constant-time twin is clean under ct-seq" (fun () ->
        let v = detect ~count:3 "aes-ct" in
        Alcotest.(check bool) "clean" false v.Leak.v_leak;
        Alcotest.(check bool) "accesses observed" true (v.Leak.v_accesses > 0));
    tc "ct-none observes nothing" (fun () ->
        let v = detect ~clause:Leak.Ct_none ~count:3 "aes-table" in
        Alcotest.(check bool) "clean" false v.Leak.v_leak;
        Alcotest.(check int) "no observable accesses" 0 v.Leak.v_accesses);
    tc "verdict JSON is deterministic across runs" (fun () ->
        let json () =
          Shift.Results.to_string (Leak.verdict_to_json (detect ~count:3 "aes-table"))
        in
        Alcotest.(check string) "byte-identical" (json ()) (json ()));
    tc "every variant starts from one compiled image" (fun () ->
        match Catalog.leak_start ~mode:Mode.shift_word "aes-table" with
        | Error e -> Alcotest.fail e
        | Ok start ->
            let program i =
              (Shift_machine.Exec.hart0 (Shift.Session.engine (start i))).program
            in
            Alcotest.(check bool) "same program" true (program 0 == program 1));
    tc "cases carry no taint alert of their own" (fun () ->
        (* the whole point: DIFT alone sees nothing here *)
        let r = Shift.Session.report (run_to_end (start_variant "aes-table" 0)) in
        match r.Shift.Report.outcome with
        | Shift.Report.Exited _ -> ()
        | o -> Alcotest.failf "expected clean exit, got %a" Shift.Report.pp_outcome o);
    tc "detect requires at least two variants" (fun () ->
        expect_invalid "count:1" (fun () -> detect ~count:1 "aes-table"));
  ]

let suites =
  [
    ("leak:geometry", geometry_cases);
    ("leak:identity", identity_cases);
    ("leak:detector", detector_cases);
  ]
