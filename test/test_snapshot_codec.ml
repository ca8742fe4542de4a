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

let encode = Shift.Snapshot.to_string

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

(* Digests of [Snapshot.to_string s], embedded images
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

(* the writer's bytes are exactly what [Results] prints for their own
   parse: the layout, not only the content, is pinned *)
let layout_of what text =
  match Shift.Results.of_string text with
  | Error e -> Alcotest.failf "%s: not JSON: %s" what e
  | Ok j -> Util.check_string (what ^ ": printed parse") text (Shift.Results.to_string j)

let bytes_tests =
  List.map
    (fun (name, make, digest) ->
      tc name (fun () ->
          let s = make () in
          let text = encode s in
          layout_of name text;
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

(* a save that fails leaves neither the file nor its temporary sibling *)
let failed_save_tests =
  [
    tc "a failed save removes its temporary file" (fun () ->
        let dir = Filename.temp_file "shift-snap" ".dir" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let inner = Filename.concat dir "occupied" in
        Out_channel.with_open_bin inner ignore;
        Fun.protect
          ~finally:(fun () ->
            Sys.remove inner;
            Sys.rmdir dir)
          (fun () ->
            (match Shift.Snapshot.save dir (single_word ()) with
            | () -> Alcotest.fail "saved over a non-empty directory"
            | exception Sys_error _ -> ());
            Util.check_bool "temporary file removed" false
              (Sys.file_exists (dir ^ ".tmp"))));
  ]

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

let hart_of f = with_field "machine" (with_field "hart" f)
let cache_of f = hart_of (with_field "cache" f)
let tracking_of f = with_field "tracking" f

(* an Error whose message names the field path it occurred under *)
let rejects_at path j =
  match Shift.Snapshot.of_json j with
  | Ok _ -> Alcotest.failf "%s: decoded instead of returning Error" path
  | Error e ->
      Util.check_bool
        (Printf.sprintf "%S names %s" e path)
        true (Str_exists.contains e path)

(* the first [n] entries of a list, or bits of a bit string *)
let cut n = function
  | Shift.Results.List l -> Shift.Results.List (List.filteri (fun i _ -> i < n) l)
  | Shift.Results.String b -> Shift.Results.String (String.sub b 0 n)
  | _ -> Alcotest.fail "expected a list or a bit string"

(* arrays whose length a fresh machine fixes: restore copies them
   unchecked, so decoding must refuse any other length *)
let wrong_sizes =
  [
    ("a register file of 127 entries", "machine: hart: values",
     hart_of (with_field "values" (cut 127)));
    ("a NaT file of 100 bits", "machine: hart: nats",
     hart_of (with_field "nats" (cut 100)));
    ("a register scoreboard of 3 entries", "machine: hart: pipe: reg_ready",
     hart_of (with_field "pipe" (with_field "reg_ready" (cut 3))));
    ("an empty predicate scoreboard", "machine: hart: pipe: pred_ready",
     hart_of (with_field "pipe" (set "pred_ready" (Shift.Results.List []))));
    ("a cache of 3 sets", "machine: hart: cache: lines",
     cache_of (with_field "lines" (cut 3)));
  ]

let machine_of f = with_field "machine" f
let list_of f = function
  | Shift.Results.List l -> Shift.Results.List (f l)
  | _ -> Alcotest.fail "expected a list"

let first_of f = list_of (function e :: rest -> f e :: rest | [] -> Alcotest.fail "empty list")
let last_twice l = l @ [ List.nth l (List.length l - 1) ]
let short_page = Shift.Results.String "00"

(* schedules the round robin cannot run, pages restore cannot load, and
   quanta that would never run an instruction: each was an exception in
   [Session.restore] (or a silent timeout) before decoding refused it *)
let bad_machines =
  Shift.Results.
    [
      ("an empty process table", "machine: procs", procs_exec,
       machine_of (set "procs" (List [])));
      ("an SMP machine without harts", "machine: harts", smp_threads,
       machine_of (set "harts" (List [])));
      ("a round naming an unknown pid", "machine: round", procs_exec,
       machine_of (set "round" (List [ List [ Int 99; Int 1 ] ])));
      ("a round naming an unknown hart", "machine: round", smp_threads,
       machine_of (set "round" (List [ List [ Int 99; Int 1 ] ])));
      ("a round entry with no instructions left", "machine: round", smp_threads,
       machine_of (set "round" (List [ List [ Int 0; Int 0 ] ])));
      ("a table whose first entry is not pid 1", "machine: procs", procs_exec,
       machine_of (with_field "procs" (list_of List.tl)));
      ("a machine whose first hart is not hart 0", "machine: harts", smp_threads,
       machine_of (with_field "harts" (list_of List.rev)));
      ("a pid on the table twice", "machine: procs", procs_exec,
       machine_of (with_field "procs" (list_of last_twice)));
      ("a next_pid already in use", "machine: next_pid", procs_exec,
       machine_of (set "next_pid" (Int 1)));
      ("a process quantum of 0", "machine: quantum", procs_exec,
       machine_of (set "quantum" (Int 0)));
      ("an SMP quantum of -3", "machine: quantum", smp_threads,
       machine_of (set "quantum" (Int (-3))));
      ("a configured quantum of 0", "config: threading: quantum", smp_threads,
       with_field "config" (with_field "threading" (set "quantum" (Int 0))));
      ("a memory page of 1 byte", "memory: data", single_word,
       with_field "memory" (first_of (set "data" short_page)));
      ("a process memory page of 1 byte", "machine: procs: memory: data", procs_exec,
       machine_of
         (with_field "procs" (first_of (with_field "memory" (first_of (set "data" short_page))))));
      ("a provenance page of 1 byte", "flow: provenance_pages: data", byte_traced,
       with_field "flow" (with_field "provenance_pages" (first_of (set "data" short_page))));
    ]

let hostile_tests =
  List.map
    (fun (what, path, make, edit) ->
      tc (what ^ " is an Error") (fun () ->
          rejects_at path (edit (Shift.Snapshot.to_json (make ())))))
    bad_machines
  @ List.map
    (fun (what, path, edit) ->
      tc (what ^ " is an Error") (fun () ->
          rejects_at path (edit (Shift.Snapshot.to_json (single_word ())))))
    wrong_sizes
  @ [
    tc "a process running an unconfigured image is an Error" (fun () ->
        let j = Shift.Snapshot.to_json (procs_exec ()) in
        rejects_at "machine: procs"
          (with_field "machine"
             (with_field "procs" (function
               | Shift.Results.List (p :: rest) ->
                   Shift.Results.List
                     (set "image" (Shift.Results.String "no-such-image") p :: rest)
               | _ -> Alcotest.fail "no processes"))
             j));
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

(* ---------- the configuration round trip ---------- *)

module Config = Shift.Session.Config

let gen_config aux =
  let open QCheck.Gen in
  let small = int_range 0 1000 and opt g = option ~ratio:0.5 g in
  (* decoding refuses a non-positive quantum *)
  let quantum = int_range 1 1000 in
  let* taint_network = bool and* taint_files = bool and* h1 = bool
  and* h2 = opt (oneofl [ "www"; "/srv/root" ]) and* h3 = bool and* h4 = bool
  and* h5 = bool and* low_level = bool
  and* action = oneofl Policy.[ Halt_program; Log_only ] in
  let policy =
    { Policy.taint_network; taint_files; h1; h2; h3; h4; h5; low_level; action }
  in
  let* per_call = small and* per_byte = small and* sendfile_per_byte = small in
  let* fuel = int_range 0 max_int
  and* threading =
    oneof
      [
        return Config.Single;
        map (fun quantum -> Config.Threads { quantum }) (opt quantum);
        map2
          (fun quantum comm -> Config.Processes { quantum; comm })
          (opt quantum) (opt (oneofl [ "main"; "init" ]));
      ]
  and* trace =
    opt
      (map2
         (fun capacity only -> { Shift.Flowtrace.capacity; only })
         (int_range 1 100_000)
         (opt (list_size (int_range 0 7) (oneofl Shift.Flowtrace.all_kinds))))
  and* hwtrace = bool and* superblocks = bool
  and* backend = oneofl Backend.[ Nat; Coproc; Off ]
  and* images = oneofl [ []; [ ("aux", aux) ] ]
  and* coproc_capacity = opt small and* coproc_drain_rate = opt small
  and* coproc_stall_penalty = opt small in
  return
    (Config.make ~policy
       ~io_cost:{ Shift.World.per_call; per_byte; sendfile_per_byte }
       ~fuel ~threading ?trace ~hwtrace ~superblocks ~backend ~images
       ?coproc_capacity ?coproc_drain_rate ?coproc_stall_penalty ())

(* an image by its content; its code is derived and holds closures *)
let image_content (i : Shift.Image.t) =
  Marshal.to_string
    Shift.Image.(i.program, i.data, i.symbols, i.mode, i.func_sizes)
    []

(* every serialisable field compared on its own: [setup] is a closure,
   so [=] on the whole record raises *)
let config_fields (c : Config.t) =
  Config.
    [
      ("policy", Marshal.to_string c.policy []);
      ("io_cost", Marshal.to_string c.io_cost []);
      ("fuel", string_of_int c.fuel);
      ("threading", Marshal.to_string c.threading []);
      ("trace", Marshal.to_string c.trace []);
      ("hwtrace", string_of_bool c.hwtrace);
      ("superblocks", string_of_bool c.superblocks);
      ("backend", Backend.to_string c.backend);
      ( "images",
        String.concat ";"
          (List.map (fun (n, i) -> n ^ "=" ^ Digest.string (image_content i)) c.images) );
      ("coproc_capacity", Marshal.to_string c.coproc_capacity []);
      ("coproc_drain_rate", Marshal.to_string c.coproc_drain_rate []);
      ("coproc_stall_penalty", Marshal.to_string c.coproc_stall_penalty []);
    ]

let config_round_trip =
  let base =
    lazy
      (let image =
         Shift.Session.build ~mode:Mode.shift_word (Util.main_returning [ Build.ret (Build.i 7) ])
       in
       (Shift.Session.checkpoint (Shift.Session.start image), image))
  in
  QCheck.Test.make ~count:200 ~name:"every config field survives to_json/of_json"
    (QCheck.make (QCheck.Gen.delay (fun () -> gen_config (snd (Lazy.force base)))))
    (fun config ->
      let s = { (fst (Lazy.force base)) with Shift.Snapshot.config } in
      let text = encode s in
      layout_of "config" text;
      match decode text with
      | Error e -> QCheck.Test.fail_reportf "did not decode: %s" e
      | Ok s' ->
          List.iter2
            (fun (name, want) (_, got) ->
              if want <> got then QCheck.Test.fail_reportf "field %s changed" name)
            (config_fields config)
            (config_fields s'.Shift.Snapshot.config);
          true)

let suites =
  [
    ("snapshot.bytes", bytes_tests);
    ("snapshot.save", save_tests @ failed_save_tests);
    ("snapshot.hostile", hostile_tests);
    ("snapshot.config", [ QCheck_alcotest.to_alcotest config_round_trip ]);
  ]
