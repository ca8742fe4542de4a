(* The snapshot wire format: every machine shape encodes to a pinned
   text (digests recorded from the hand-written codec the combinators
   replaced), decoding then re-encoding gives the same text, and
   malformed files come back as [Error], never as an exception. *)

module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module Spec = Shift_workloads.Spec
module Backend = Shift_tracking.Backend
module Attacks = Shift_attacks.Attacks
module Case = Shift_attacks.Attack_case

let tc = Util.tc
let fuel = 100_000_000

let encode s = Shift.Results.to_string (Shift.Snapshot.to_json s)

let decode text =
  match Shift.Results.of_string text with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> Shift.Snapshot.of_json j

let slices live ~budget ~yields =
  for _ = 1 to yields do
    match Shift.Session.advance live ~budget with
    | `Yielded -> ()
    | `Finished _ -> Alcotest.fail "run finished before the checkpoint point"
  done

let kernel_live ?threading ?trace ?hwtrace ~mode name =
  let k =
    match Spec.find name with
    | Some k -> k
    | None -> Alcotest.failf "kernel %s missing" name
  in
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel
      ~setup:(Spec.setup ~size:256 ~tainted:true k)
      ?threading ?trace ?hwtrace ()
  in
  Shift.Session.start ~config (Shift.Session.build ~mode k.Spec.program)

let trace = { Shift.Flowtrace.capacity = 64; only = None }

(* ---------- the shapes ---------- *)

let single_word () =
  let live = kernel_live ~mode:Mode.shift_word "gzip" in
  slices live ~budget:5000 ~yields:3;
  Shift.Session.checkpoint ~meta:[ ("shape", "single") ] live

let byte_traced () =
  let live = kernel_live ~trace ~mode:Mode.shift_byte "gzip" in
  slices live ~budget:5000 ~yields:3;
  Shift.Session.checkpoint live

let smp_threads () =
  let threading = Shift.Session.Config.Threads { quantum = Some 7 } in
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel ~threading ()
  in
  let live =
    Shift.Session.start ~config
      (Shift.Session.build ~mode:Mode.shift_word Test_snapshot.spawn_prog)
  in
  slices live ~budget:13 ~yields:5;
  Shift.Session.checkpoint live

let exec_case () =
  match List.find_opt (fun c -> c.Case.images <> []) Attacks.multiproc with
  | Some c -> c
  | None -> Alcotest.fail "no multi-process case execs an aux image"

(* slice until the exec'd child is on the table, so the checkpoint
   carries the aux image, a per-process image name and pipe state *)
let procs_exec () =
  let c = exec_case () in
  let mode = Mode.shift_byte in
  let config = Case.config ~trace ~mode ~input:c.Case.exploit c in
  let live = Shift.Session.start ~config (Case.image ~mode c) in
  let execed (s : Shift.Snapshot.t) =
    match s.Shift.Snapshot.machine with
    | Shift.Snapshot.M_procs { pm_procs; _ } ->
        List.exists (fun p -> p.Shift.Snapshot.ps_image <> None) pm_procs
    | _ -> false
  in
  let rec go n =
    if n = 0 then Alcotest.fail "the child never exec'd";
    slices live ~budget:64 ~yields:1;
    let s = Shift.Session.checkpoint live in
    if execed s then s else go (n - 1)
  in
  go 10_000

let coproc_queue () =
  let backend = Backend.Coproc in
  let prog = Test_random.gen_program 42 in
  let config = Shift.Session.Config.make ~fuel ~backend () in
  let live =
    Shift.Session.start ~config
      (Shift.Session.build ~backend ~mode:Mode.shift_word prog)
  in
  slices live ~budget:500 ~yields:1;
  let s = Shift.Session.checkpoint live in
  (match s.Shift.Snapshot.tracking with
  | Some d when d.Shift_tracking.Tracking.d_queue <> [] -> ()
  | _ -> Alcotest.fail "expected a non-empty coprocessor queue");
  s

let hwtrace_on () =
  let live = kernel_live ~hwtrace:true ~mode:Mode.shift_word "mcf" in
  slices live ~budget:3000 ~yields:2;
  Shift.Session.checkpoint live

let finished_alert () =
  let c = List.hd Attacks.all in
  let mode = Mode.shift_word in
  let config = Case.config ~mode ~input:c.Case.exploit c in
  let live = Shift.Session.start ~config (Case.image ~mode c) in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished (Shift.Report.Alert _) -> ()
  | _ -> Alcotest.fail "expected the exploit to finish with an alert");
  Shift.Session.checkpoint live

let with_field name f = function
  | Shift.Results.Obj kvs ->
      Shift.Results.Obj
        (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) kvs)
  | j -> j

(* Digests of [Results.to_string (Snapshot.to_json s)], embedded images
   included (string literals are numbered per compile, so an image's
   bytes do not depend on what the process compiled before it).  A
   change here means the on-disk format moved: every saved checkpoint,
   spill file and migration peer is affected, so it must be deliberate
   (and, if incompatible, come with a [Snapshot.version] bump). *)
let shapes =
  [
    ( "single hart, word granularity",
      single_word,
      "c6aae2ff7f24acdfb65a32426d6bfb01" );
    ( "byte granularity, Flowtrace on",
      byte_traced,
      "cd6fb0ffdd2d7008189c4fc7361f5e02" );
    ( "SMP threads",
      smp_threads,
      "85fbf520d03cf245aab58890852a18ae" );
    ( "multi-process, exec'd aux image, Flowtrace on",
      procs_exec,
      "f5c1b805d031c57098449fb85b318e0c" );
    ( "coproc, non-empty queue",
      coproc_queue,
      "040474f0ca7cdc778c40219b62f381d6" );
    ( "hwtrace on",
      hwtrace_on,
      "68ccce40df1932941d50471e6b2e9dea" );
    ( "finished session, alert result",
      finished_alert,
      "d7790eba13f019861f453a29f2ee70f0" );
  ]

let bytes_tests =
  List.map
    (fun (name, make, digest) ->
      tc name (fun () ->
          let s = make () in
          let text = encode s in
          Util.check_string "pinned snapshot digest" digest
            (Digest.to_hex (Digest.string text));
          match decode text with
          | Error e -> Alcotest.failf "snapshot did not decode: %s" e
          | Ok s -> Util.check_string "decode then re-encode" text (encode s)))
    shapes

(* [save] prints into one buffer and hands it to the channel; the file
   must hold exactly the printed text and a newline *)
let with_temp f =
  let path = Filename.temp_file "shift-snap" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let save_tests =
  List.map
    (fun (name, make, _) ->
      tc ("save writes the printed text: " ^ name) (fun () ->
          let s = make () in
          with_temp (fun path ->
              Shift.Snapshot.save path s;
              Util.check_string "file bytes"
                (Shift.Results.to_string (Shift.Snapshot.to_json s) ^ "\n")
                (In_channel.with_open_bin path In_channel.input_all))))
    shapes

(* ---------- hostile input ---------- *)

let rejects what j =
  match Shift.Snapshot.of_json j with
  | Ok _ -> Alcotest.failf "%s: decoded instead of returning Error" what
  | Error _ -> ()

let set name v = with_field name (fun _ -> v)

let remove name = function
  | Shift.Results.Obj kvs -> Shift.Results.Obj (List.remove_assoc name kvs)
  | j -> j

(* one byte, nothing at all, and the real payload cut in half *)
let broken_images j =
  let whole =
    match Shift.Results.member "image" j with
    | Some (Shift.Results.String h) -> h
    | _ -> Alcotest.fail "no image payload"
  in
  List.map
    (fun (what, h) -> (what, Shift.Results.String h))
    [
      ("00", "00");
      ("empty", "");
      ("truncated", String.sub whole 0 (String.length whole / 4 * 2));
    ]

let cache_of f = with_field "machine" (with_field "hart" (with_field "cache" f))
let tracking_of f = with_field "tracking" f

let hostile_tests =
  [
    tc "a truncated or empty image is an Error" (fun () ->
        let j = Shift.Snapshot.to_json (single_word ()) in
        List.iter
          (fun (what, img) -> rejects ("image " ^ what) (set "image" img j))
          (broken_images j));
    tc "a truncated or empty aux image is an Error" (fun () ->
        let j = Shift.Snapshot.to_json (procs_exec ()) in
        List.iter
          (fun (what, img) ->
            rejects ("aux image " ^ what)
              (with_field "config"
                 (with_field "images" (function
                   | Shift.Results.List (e :: rest) ->
                       Shift.Results.List (set "image" img e :: rest)
                   | _ -> Alcotest.fail "no aux images"))
                 j))
          (broken_images j));
    tc "an ill-typed line_shift is an Error" (fun () ->
        let j = Shift.Snapshot.to_json (single_word ()) in
        List.iter
          (fun v -> rejects "line_shift" (cache_of (set "line_shift" v) j))
          Shift.Results.[ String "7"; Bool true; Null ]);
    tc "an absent line_shift still means 64-byte lines" (fun () ->
        let j = Shift.Snapshot.to_json (single_word ()) in
        match Shift.Snapshot.of_json (cache_of (remove "line_shift") j) with
        | Error e -> Alcotest.failf "did not decode: %s" e
        | Ok s -> (
            match s.Shift.Snapshot.machine with
            | Shift.Snapshot.M_cpu h ->
                Util.check_int "line_shift" 6
                  h.Shift.Snapshot.h_cache.Shift_machine.Cache.s_line_shift
            | _ -> Alcotest.fail "expected a single-hart machine"));
    tc "a missing superblocks flag is an Error" (fun () ->
        let j = Shift.Snapshot.to_json (single_word ()) in
        rejects "superblocks" (with_field "config" (remove "superblocks") j));
    tc "a hostile tag-queue record is an Error" (fun () ->
        let j = Shift.Snapshot.to_json (coproc_queue ()) in
        let addr =
          Shift.Results.String
            (Int64.to_string (Shift_mem.Addr.in_region 1 0x10000L))
        in
        let record fields = Shift.Results.Obj fields in
        List.iter
          (fun (what, r) ->
            rejects what
              (tracking_of
                 (with_field "queue" (function
                   | Shift.Results.List (e :: rest) ->
                       Shift.Results.List (set "record" r e :: rest)
                   | _ -> Alcotest.fail "empty queue"))
                 j))
          Shift.Results.
            [
              ( "register 999",
                record [ ("op", String "set"); ("dst", Int 999); ("tainted", Bool true) ] );
              ( "register -1",
                record [ ("op", String "move"); ("dst", Int 3); ("src", Int (-1)) ] );
              ( "register Reg.count",
                record
                  [ ("op", String "union"); ("dst", Int 3); ("s1", Int 4);
                    ("s2", Int Shift_isa.Reg.count) ] );
              ( "length 0",
                record [ ("op", String "load"); ("dst", Int 3); ("addr", addr); ("len", Int 0) ] );
              ( "length 9",
                record [ ("op", String "store"); ("addr", addr); ("len", Int 9); ("src", Int 3) ] );
              ( "null address",
                record [ ("op", String "load"); ("dst", Int 3); ("addr", String "0"); ("len", Int 8) ] );
              ( "check register 999",
                record [ ("op", String "check"); ("what", String "load address"); ("reg", Int 999) ] );
            ]);
    tc "a tag queue longer than its capacity is an Error" (fun () ->
        let j = Shift.Snapshot.to_json (coproc_queue ()) in
        let queue =
          match
            Option.bind (Shift.Results.member "tracking" j)
              (Shift.Results.member "queue")
          with
          | Some (Shift.Results.List (e :: _ as l)) -> (e, List.length l)
          | _ -> Alcotest.fail "empty queue"
        in
        let e, n = queue in
        rejects "default capacity + 1"
          (tracking_of
             (set "queue"
                (Shift.Results.List
                   (List.init (Shift_tracking.Tracking.default_capacity + 1)
                      (fun _ -> e))))
             j);
        if n > 1 then
          rejects "configured capacity"
            (with_field "config"
               (fun c ->
                 match c with
                 | Shift.Results.Obj kvs ->
                     Shift.Results.Obj
                       (kvs @ [ ("coproc_capacity", Shift.Results.Int (n - 1)) ])
                 | c -> c)
               j));
    tc "a tag file of the wrong length is an Error" (fun () ->
        let j = Shift.Snapshot.to_json (coproc_queue ()) in
        List.iter
          (fun n ->
            rejects
              (Printf.sprintf "%d tag bits" n)
              (tracking_of (set "regs" (Shift.Results.String (String.make n '0'))) j))
          [ 0; Shift_isa.Reg.count - 1; Shift_isa.Reg.count + 1 ]);
    tc "tag-queue state under the nat backend is an Error" (fun () ->
        let tracking =
          Shift.Results.member "tracking"
            (Shift.Snapshot.to_json (coproc_queue ()))
        in
        match (tracking, Shift.Snapshot.to_json (single_word ())) with
        | Some tk, Shift.Results.Obj kvs ->
            rejects "nat + tracking" (Shift.Results.Obj (kvs @ [ ("tracking", tk) ]))
        | _ -> Alcotest.fail "unexpected snapshot shape");
    tc "load returns an Error for a corrupted file" (fun () ->
        let j = Shift.Snapshot.to_json (single_word ()) in
        let text = Shift.Results.(to_string (set "image" (String "00") j)) in
        with_temp (fun path ->
            Out_channel.with_open_bin path (fun oc -> output_string oc text);
            match Shift.Snapshot.load path with
            | Ok _ -> Alcotest.fail "loaded a corrupted snapshot"
            | Error _ -> ()));
  ]

let suites =
  [
    ("snapshot.bytes", bytes_tests);
    ("snapshot.save", save_tests);
    ("snapshot.hostile", hostile_tests);
  ]
