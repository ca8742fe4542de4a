(* The observation channel and the speculation-contract leak detector.

   Three contracts under test: the cache model rejects degenerate
   geometry instead of deferring a crash (or silently mislabelling
   lines); the hardware trace is an architectural observation —
   byte-identical with superblocks on or off and across mid-trace
   checkpoint/restore; and the detector flags the lookup-table AES
   kernel (naming the key bytes that steered the diverging access)
   while passing its constant-time twin, and reports every divergence
   exactly as a detector that traced every variant in full. *)

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

(* ---------- the trace buffer ---------- *)

let entry_gen =
  QCheck.Gen.(
    map
      (fun (pc, set, (hit, store), prov) ->
        { Hw.e_pc = pc; e_set = set; e_hit = hit; e_store = store; e_prov = prov })
      (quad nat (int_bound 1023) (pair bool bool) (oneof [ return 0; nat ])))

let record_all hw es =
  List.iter
    (fun (e : Hw.entry) ->
      Hw.record hw ~pc:e.Hw.e_pc ~set:e.Hw.e_set ~hit:e.Hw.e_hit ~store:e.Hw.e_store
        ~prov:e.Hw.e_prov)
    es

let buffer_cases =
  [
    prop "get and entries return what was recorded, past the first capacity" ~count:50
      (QCheck.make
         QCheck.Gen.(list_size (int_range 0 1500) entry_gen))
      (fun es ->
        let hw = Hw.create () in
        record_all hw es;
        Hw.length hw = List.length es
        && Hw.dropped hw = 0
        && Array.to_list (Hw.entries hw) = es
        && List.for_all
             (fun (i, (e : Hw.entry)) ->
               Hw.get hw i = e
               && Hw.pc hw i = e.Hw.e_pc
               && Hw.set hw i = e.Hw.e_set
               && Hw.hit hw i = e.Hw.e_hit
               && Hw.store hw i = e.Hw.e_store
               && Hw.prov hw i = e.Hw.e_prov)
             (List.mapi (fun i e -> (i, e)) es));
    tc "record past the limit counts into dropped" (fun () ->
        let hw = Hw.create ~limit:300 () in
        for i = 1 to 1000 do
          Hw.record hw ~pc:i ~set:(i land 255) ~hit:true ~store:false ~prov:0
        done;
        Alcotest.(check int) "kept" 300 (Hw.length hw);
        Alcotest.(check int) "dropped" 700 (Hw.dropped hw);
        Alcotest.(check int) "last kept" 300 (Hw.pc hw 299);
        expect_invalid "get past length" (fun () -> Hw.get hw 300);
        Hw.clear hw;
        Alcotest.(check int) "cleared" 0 (Hw.length hw + Hw.dropped hw));
    tc "record allocates nothing" (fun () ->
        let hw = Hw.create () in
        let fill () =
          for i = 1 to 1000 do
            Hw.record hw ~pc:i ~set:(i land 255) ~hit:(i land 1 = 0) ~store:(i land 2 = 0)
              ~prov:i
          done
        in
        (* the first pass grows the array; the timed pass reuses it *)
        fill ();
        Hw.clear hw;
        let w0 = Gc.minor_words () in
        fill ();
        let words = Gc.minor_words () -. w0 in
        if words > 10. then Alcotest.failf "1000 records allocated %.0f words" words);
    tc "a following trace compares without allocating or storing" (fun () ->
        let reference = Hw.create () in
        for i = 1 to 1000 do
          Hw.record reference ~pc:i ~set:(i land 255) ~hit:true ~store:(i land 2 = 0) ~prov:0
        done;
        let hw = Hw.create () in
        Hw.follow hw ~reference;
        let w0 = Gc.minor_words () in
        for i = 1 to 1000 do
          (* the pc, hit bit and provenance are not clause-visible *)
          Hw.record hw ~pc:(i + 7) ~set:(if i = 700 then 3 else i land 255) ~hit:false
            ~store:(i land 2 = 0) ~prov:i
        done;
        let words = Gc.minor_words () -. w0 in
        if words > 10. then Alcotest.failf "1000 following records allocated %.0f words" words;
        Alcotest.(check int) "no entry array" 0 (Array.length hw.Hw.data);
        Alcotest.(check int) "counted" 1000 (Hw.length hw);
        Alcotest.(check (option int)) "first mismatch" (Some 699) (Hw.first_mismatch hw);
        expect_invalid "entries of a follower" (fun () -> Hw.get hw 0));
    tc "a following trace keeps the limit and dropped rules" (fun () ->
        let reference = Hw.create ~limit:300 () in
        for i = 1 to 1000 do
          Hw.record reference ~pc:i ~set:(i land 255) ~hit:true ~store:false ~prov:0
        done;
        let hw = Hw.create ~limit:300 () in
        Hw.follow hw ~reference;
        for i = 1 to 1000 do
          Hw.record hw ~pc:i ~set:(if i > 300 then 0 else i land 255) ~hit:true ~store:false
            ~prov:0
        done;
        Alcotest.(check int) "kept" 300 (Hw.length hw);
        Alcotest.(check int) "dropped" 700 (Hw.dropped hw);
        Alcotest.(check (option int)) "nothing past the limit compared" None
          (Hw.first_mismatch hw));
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
    tc "only the baseline records, and nothing observed is flow-traced" (fun () ->
        match Catalog.leak_start ~mode:Mode.shift_word "aes-ct" with
        | Error e -> Alcotest.fail e
        | Ok start ->
            let lives = ref [] in
            let start i =
              let l = start i in
              lives := l :: !lives;
              l
            in
            ignore (Leak.detect ~count:4 ~start ());
            match List.rev !lives with
            | [] -> Alcotest.fail "no session started"
            | base :: variants ->
                Alcotest.(check int) "one session per variant" 3 (List.length variants);
                List.iter
                  (fun l ->
                    Alcotest.(check bool) "Flowtrace off" true (Option.is_none (Shift.Session.flowtrace l)))
                  (base :: variants);
                List.iter
                  (fun l ->
                    let hw = Option.get (Shift.Session.hwtrace l) in
                    Alcotest.(check bool) "follows" true (Option.is_some hw.Hw.reference);
                    Alcotest.(check int) "no entries stored" 0 (Array.length hw.Hw.data))
                  variants);
    tc "detect requires at least two variants" (fun () ->
        expect_invalid "count:1" (fun () -> detect ~count:1 "aes-table"));
  ]

(* ---------- the two-pass detector against the full-trace one ---------- *)

(* The detector as it was before it split observation from
   explanation: every variant runs to the end flow-traced and records
   its whole hardware trace, and the traces are compared access by
   access.  Kept as the reference the two-pass detector must agree with
   on every divergence record. *)
module Reference = struct
  module Ft = Shift_machine.Flowtrace

  let run start i =
    let live = start i in
    ignore (run_to_end live);
    (live, Option.get (Shift.Session.hwtrace live))

  let address_provenance live id =
    if id = 0 then []
    else
      match Shift.Session.flowtrace live with
      | None -> []
      | Some ft -> (
          match Ft.source_of_id ft id with
          | None -> []
          | Some src ->
              [
                Printf.sprintf "input %s[%d] via %s" src.Ft.channel
                  (Ft.input_offset src id) src.Ft.origin;
              ])

  let first_divergence ~variant (base, base_hw) (live, hw) =
    let nb = Hw.length base_hw and nv = Hw.length hw in
    let n = min nb nv in
    let rec scan i =
      if i < n then
        if Hw.set base_hw i <> Hw.set hw i || Hw.store base_hw i <> Hw.store hw i then
          Some
            {
              Leak.d_variant = variant;
              d_index = i;
              d_pc = Hw.pc hw i;
              d_store = Hw.store hw i;
              d_set_base = Hw.set base_hw i;
              d_set_variant = Hw.set hw i;
              d_tainted =
                (match address_provenance live (Hw.prov hw i) with
                | [] -> address_provenance base (Hw.prov base_hw i)
                | hops -> hops);
            }
        else scan (i + 1)
      else if nb = nv then None
      else
        let longer_live, longer = if nv > nb then (live, hw) else (base, base_hw) in
        Some
          {
            Leak.d_variant = variant;
            d_index = n;
            d_pc = Hw.pc longer n;
            d_store = Hw.store longer n;
            d_set_base = (if nb > n then Hw.set longer n else -1);
            d_set_variant = (if nv > n then Hw.set longer n else -1);
            d_tainted = address_provenance longer_live (Hw.prov longer n);
          }
    in
    scan 0

  let detect ~count ~start =
    let base = run start 0 in
    let rec probe i =
      if i >= count then None
      else
        match first_divergence ~variant:i base (run start i) with
        | Some d -> Some d
        | None -> probe (i + 1)
    in
    probe 1
end

(* A guest whose loop count is its tainted input byte.  The loop body
   loads one table entry and nothing touches memory after the loop, so
   a run with fewer iterations makes a strict prefix of the accesses of
   a run with more: the variants differ in trace length only. *)
let counted_loop =
  let open Build in
  let open Build.Infix in
  {
    Ir.globals = [ global_words "table" (List.init 8 Int64.of_int) ];
    funcs =
      [
        func "main" ~params:[]
          ~locals:[ scalar "fd"; scalar "buf"; scalar "n"; scalar "k"; scalar "acc" ]
          ([
             set "fd" (call "sys_open" [ str "count.bin" ]);
             set "buf" (call "malloc" [ i 8 ]);
             ecall "sys_read" [ v "fd"; v "buf"; i 1 ];
             set "n" (call "untaint" [ load8 (v "buf") &: i 255 ]);
             set "acc" (i 0);
           ]
          @ for_up "k" (i 0) (v "n")
              [ set "acc" (v "acc" ^: load64 (v "table" +: i 8)) ]
          @ [ ecall "sys_exit" [ i 0 ] ]);
      ];
  }

(* variant [i] runs the loop [counts.(i)] times *)
let counted_start counts =
  let variant i w =
    Shift_os.World.add_file w "count.bin" (String.make 1 (Char.chr counts.(i)))
  in
  let case =
    {
      Shift_attacks.Aes_table.case with
      Shift_attacks.Attack_case.program_name = "counted loop";
      program = counted_loop;
      variants = Some variant;
      cache = Shift.Session.image_cache ();
    }
  in
  let mode = Mode.shift_word in
  let image = Shift_attacks.Attack_case.image ~mode case in
  fun i ->
    Shift.Session.start
      ~config:
        (Shift_attacks.Attack_case.config ~trace:Shift_machine.Flowtrace.default_options
           ~hwtrace:true ~mode ~input:(variant i) case)
      image

let divergence =
  Alcotest.testable
    (fun ppf (d : Leak.divergence) ->
      Format.fprintf ppf "variant %d, access %d, pc %d %s, sets %d/%d, tainted_by [%s]"
        d.Leak.d_variant d.d_index d.d_pc
        (if d.d_store then "store" else "load")
        d.d_set_base d.d_set_variant
        (String.concat "; " d.d_tainted))
    ( = )

let agrees_with_reference ~count start =
  let v = Leak.detect ~count ~start () in
  let expected = Reference.detect ~count ~start in
  Alcotest.(check (option divergence)) "divergence record" expected v.Leak.v_divergence;
  v

let differential_cases =
  [
    tc "variant 1 equals the baseline, variant 2 diverges" (fun () ->
        match Catalog.leak_start ~mode:Mode.shift_word "aes-table" with
        | Error e -> Alcotest.fail e
        | Ok start ->
            let start i = start (if i = 1 then 0 else i) in
            let v = agrees_with_reference ~count:3 start in
            Alcotest.(check (option int)) "diverging variant" (Some 2)
              (Option.map (fun d -> d.Leak.d_variant) v.Leak.v_divergence));
    tc "a variant makes more accesses than the baseline" (fun () ->
        let v = agrees_with_reference ~count:2 (counted_start [| 3; 5 |]) in
        match v.Leak.v_divergence with
        | None -> Alcotest.fail "a longer variant must diverge"
        | Some d -> Alcotest.(check int) "absent in the baseline" (-1) d.Leak.d_set_base);
    tc "a variant makes fewer accesses than the baseline" (fun () ->
        let v = agrees_with_reference ~count:2 (counted_start [| 5; 3 |]) in
        match v.Leak.v_divergence with
        | None -> Alcotest.fail "a shorter variant must diverge"
        | Some d -> Alcotest.(check int) "absent in the variant" (-1) d.Leak.d_set_variant);
    tc "a divergence the traced re-run does not reproduce fails loudly" (fun () ->
        match Catalog.leak_start ~mode:Mode.shift_word "aes-table" with
        | Error e -> Alcotest.fail e
        | Ok start ->
            (* a starter that is not deterministic: after the two
               observation runs it only ever starts the baseline *)
            let calls = ref 0 in
            let start i =
              incr calls;
              start (if !calls > 2 then 0 else i)
            in
            match Leak.detect ~count:2 ~start () with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail "expected Failure from the explanation re-run");
  ]

let suites =
  [
    ("leak:geometry", geometry_cases);
    ("leak:identity", identity_cases);
    ("leak:buffer", buffer_cases);
    ("leak:detector", detector_cases);
    ("leak:differential", differential_cases);
  ]
