(* Superblock compiler: counter identity and the directed corner cases.

   The contract under test is the one DESIGN.md states: with the
   superblock compiler live, every piece of simulated state — the
   Stats counters, pipeline cycles, cache state, the Flowtrace ring,
   alerts, snapshots — is byte-identical to a pure-interpreter run.
   The compiler may only shed host-side work whose absence cannot be
   observed.

   Three corners get directed tests because they are where the
   invariant is easiest to break: guest stores into the watched code
   region (block invalidation), fuel slices expiring mid-block
   (interpreter fallback with exact accounting), and checkpoint/restore
   landing both on block boundaries and mid-interpretation (blocks are
   derived state and must never leak into a snapshot).  Machines that
   share one image's blocks get directed tests too: a code write stays
   private to the writer, concurrent domains agree with a solo run, and
   shared blocks keep no dropped session alive. *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module Stats = Shift_machine.Stats
module Superblock = Shift_machine.Superblock
module Spec = Shift_workloads.Spec

let tc = Util.tc
let fuel = 200_000_000

let report_json (r : Shift.Report.t) =
  Shift.Results.to_string (Shift.Results.of_report r)

(* run to completion in [budget]-instruction slices and return the
   live session (so stats / flowtrace stay inspectable) *)
let run_sliced ?trace ?(superblocks = true) ?(budget = max_int) ~mode prog =
  let image = Shift.Session.build ~mode prog in
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel ?trace ~superblocks
      ()
  in
  let live = Shift.Session.start ~config image in
  let rec go () =
    match Shift.Session.advance live ~budget with
    | `Yielded -> go ()
    | `Finished _ -> ()
  in
  go ();
  live

let flow_jsonl live =
  match Shift.Session.flowtrace live with
  | Some ft -> Shift.Flow.jsonl ft
  | None -> ""

(* ---------- directed: self-modifying stores invalidate blocks ---------- *)

(* The code region is region 2, 8 bytes per instruction slot, and the
   null guard keeps guest stores below offset 4096 invalid — so a
   program must span more than 512 slots before it can write over its
   own code.  [padding] supplies those slots; they run once. *)
let code_slot_addr = Build.i64 (Superblock.code_addr 0)

let self_modifying_prog =
  let padding =
    List.concat
      (List.init 300 (fun n -> [ set "pad" (v "pad" +: i (n land 7)) ]))
  in
  let hot_loop =
    (* hot well past the compile threshold, so blocks exist to kill *)
    for_up "j" (i 0) (i 64) [ set "acc" ((v "acc" *: i 3) +: v "j") ]
  in
  let overwrite =
    (* sweep stores across slots 512..4511 — the image (program plus
       linked runtime) is smaller than that, and the null guard makes
       slots below 512 unwritable — so whichever slots the hot loop
       landed on, its compiled blocks get invalidated *)
    for_up "k" (i 0) (i 4000)
      [ store64 (code_slot_addr +: i 4096 +: (v "k" *: i 8)) (i 0) ]
  in
  Util.main_returning
    ~locals:[ scalar "pad"; scalar "acc"; scalar "j"; scalar "k" ]
    ([ set "pad" (i 0); set "acc" (i 1) ]
    @ padding @ hot_loop @ overwrite @ hot_loop
    @ [ ret (v "acc" &: i64 0x3fffffffL) ])

let self_modifying_tests =
  [
    tc "stores over live code invalidate blocks, reports stay identical"
      (fun () ->
        let live = run_sliced ~mode:Mode.shift_word self_modifying_prog in
        let interp =
          run_sliced ~superblocks:false ~mode:Mode.shift_word
            self_modifying_prog
        in
        Util.check_string "byte-identical report"
          (report_json (Shift.Session.report interp))
          (report_json (Shift.Session.report live));
        let sb = Shift.Session.superblock_stats live in
        Util.check_bool "blocks were compiled" true (sb.Stats.sb_compiled > 0);
        Util.check_bool "the overwrite invalidated blocks" true
          (sb.Stats.sb_invalidations > 0);
        let off = Shift.Session.superblock_stats interp in
        Util.check_int "interpreter run compiled nothing" 0
          off.Stats.sb_compiled);
  ]

(* ---------- directed: fuel slices expiring mid-block ---------- *)

let slice_tests =
  [
    tc "tiny uneven slices retire exactly like one big slice" (fun () ->
        (* budget 7 is smaller than most compiled blocks, so nearly
           every slice ends mid-block and must fall back to exact
           per-instruction interpretation *)
        let sliced =
          run_sliced ~budget:7 ~mode:Mode.shift_word self_modifying_prog
        in
        let whole = run_sliced ~mode:Mode.shift_word self_modifying_prog in
        let interp =
          run_sliced ~superblocks:false ~budget:7 ~mode:Mode.shift_word
            self_modifying_prog
        in
        let r = report_json (Shift.Session.report sliced) in
        Util.check_string "sliced = whole" (report_json (Shift.Session.report whole)) r;
        Util.check_string "sliced = interpreter" (report_json (Shift.Session.report interp)) r);
  ]

(* ---------- directed: checkpoint/restore ---------- *)

let kernel name =
  match Spec.find name with
  | Some k -> k
  | None -> Alcotest.failf "kernel %s missing" name

(* checkpoint after [yields] slices of [budget], serialise to JSON and
   back, restore, finish — the round trip from test_snapshot, with the
   superblock compiler live on both sides of the break *)
let roundtrip ~budget ~yields name =
  let k = kernel name in
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel
      ~setup:(Spec.setup ~size:256 ~tainted:true k)
      ()
  in
  let image = Shift.Session.build ~mode:Mode.shift_word k.Spec.program in
  let live = Shift.Session.start ~config image in
  for _ = 1 to yields do
    match Shift.Session.advance live ~budget with
    | `Yielded -> ()
    | `Finished _ -> Alcotest.fail "run finished before the checkpoint point"
  done;
  let snap = Shift.Session.checkpoint live in
  let text = Shift.Results.to_string (Shift.Snapshot.to_json snap) in
  let snap =
    match Shift.Results.of_string text with
    | Error e -> Alcotest.failf "snapshot JSON did not parse: %s" e
    | Ok j -> (
        match Shift.Snapshot.of_json j with
        | Error e -> Alcotest.failf "snapshot did not decode: %s" e
        | Ok s -> s)
  in
  let resumed = Shift.Session.restore snap in
  let rec go () =
    match Shift.Session.advance resumed ~budget:max_int with
    | `Yielded -> go ()
    | `Finished _ -> ()
  in
  go ();
  (* the unbroken reference runs on the pure interpreter: a restored
     superblock machine must match it, here on a decoded snapshot
     whose image builds fresh code *)
  let interp_config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel
      ~setup:(Spec.setup ~size:256 ~tainted:true k)
      ~superblocks:false ()
  in
  let reference = Shift.Session.start ~config:interp_config image in
  let rec fin () =
    match Shift.Session.advance reference ~budget:max_int with
    | `Yielded -> fin ()
    | `Finished _ -> ()
  in
  fin ();
  Util.check_string "byte-identical report"
    (report_json (Shift.Session.report reference))
    (report_json (Shift.Session.report resumed))

let snapshot_tests =
  [
    tc "restore at a block-boundary break matches the interpreter" (fun () ->
        (* 5000-instruction slices: breaks land between compiled-block
           executions on the fast path *)
        roundtrip ~budget:5000 ~yields:3 "gzip");
    tc "restore at a mid-interpretation break matches the interpreter"
      (fun () ->
        (* 7-instruction slices: breaks land inside what would be a
           compiled block, on the per-instruction fallback *)
        roundtrip ~budget:7 ~yields:40 "gzip");
  ]

(* ---------- directed: machines sharing one image's code ---------- *)

module Cpu = Shift_machine.Cpu
module Exec = Shift_machine.Exec
module Image = Shift_compiler.Image
module Backend = Shift.Backend

let hart0 live = Exec.hart0 (Shift.Session.engine live)

let finish live =
  let rec go () =
    match Shift.Session.advance live ~budget:max_int with
    | `Yielded -> go ()
    | `Finished _ -> ()
  in
  go ()

let entries (tbl : Cpu.sb_block option array) =
  List.filter (fun pc -> Option.is_some tbl.(pc)) (List.init (Array.length tbl) Fun.id)

(* blocks [self_modifying_prog] invalidates when it runs alone on its
   image; a writer that found another machine's blocks in the shared
   table must count the same *)
let solo_invalidations = 33

let sharing_tests =
  let config = Shift.Session.Config.make ~policy:Policy.default ~fuel () in
  [
    tc "a code write detaches only the writer; the reader keeps its blocks"
      (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word self_modifying_prog in
        let reader = Shift.Session.start ~config image in
        (* stop the reader once it has published blocks, before its own
           overwrite loop *)
        let rec warm () =
          match Shift.Session.advance reader ~budget:50 with
          | `Finished _ -> Alcotest.fail "the reader finished while warming"
          | `Yielded ->
              if entries (hart0 reader).Cpu.sb.Cpu.sb_blocks = [] then warm ()
        in
        warm ();
        let rsb = (hart0 reader).Cpu.sb in
        let shared = rsb.Cpu.sb_blocks in
        let before = entries shared in
        Util.check_int "the reader has not written its code yet" 0
          rsb.Cpu.sb_stats.Stats.sb_invalidations;
        let writer = Shift.Session.start ~config image in
        finish writer;
        let wsb = (hart0 writer).Cpu.sb in
        Util.check_bool "the writer detached" true wsb.Cpu.sb_private;
        Util.check_int "writer invalidations = a solo run's" solo_invalidations
          wsb.Cpu.sb_stats.Stats.sb_invalidations;
        Util.check_bool "the reader still dispatches through the shared table"
          true
          ((not rsb.Cpu.sb_private) && rsb.Cpu.sb_blocks == shared);
        Util.check_bool "every block the reader saw is intact" true
          (List.for_all (fun pc -> Option.is_some shared.(pc)) before);
        finish reader;
        let solo =
          run_sliced ~superblocks:false ~mode:Mode.shift_word self_modifying_prog
        in
        let expect = report_json (Shift.Session.report solo) in
        Util.check_string "writer report" expect
          (report_json (Shift.Session.report writer));
        Util.check_string "reader report" expect
          (report_json (Shift.Session.report reader)));
    tc "a writer running alone invalidates as many blocks as ever" (fun () ->
        let live = run_sliced ~mode:Mode.shift_word self_modifying_prog in
        Util.check_int "invalidations" solo_invalidations
          (Shift.Session.superblock_stats live).Stats.sb_invalidations);
    tc "two domains starting on one fresh image match a solo run" (fun () ->
        let k = kernel "gzip" in
        List.iter
          (fun backend ->
            let config =
              Shift.Session.Config.make ~policy:Policy.default ~fuel ~backend
                ~setup:(Spec.setup ~size:256 ~tainted:true k)
                ()
            in
            let build () =
              Shift.Session.build ~backend ~mode:Mode.shift_word k.Spec.program
            in
            let run image =
              let live = Shift.Session.start ~config image in
              finish live;
              report_json (Shift.Session.report live)
            in
            let solo = run (build ()) in
            let image = build () in
            let ready = Atomic.make 0 in
            let racer () =
              Atomic.incr ready;
              while Atomic.get ready < 2 do
                Domain.cpu_relax ()
              done;
              run image
            in
            let d1 = Domain.spawn racer in
            let d2 = Domain.spawn racer in
            let name = Backend.to_string backend in
            Util.check_string (name ^ ": first domain") solo (Domain.join d1);
            Util.check_string (name ^ ": second domain") solo (Domain.join d2))
          [ Backend.Nat; Backend.Coproc ]);
  ]

(* ---------- retention: shared code holds no session ---------- *)

(* Blocks outlive the session that compiled them, so they must not
   reach its memory or tracking handle; and the code itself goes with
   the last image or machine that holds it. *)
let[@inline never] run_and_forget ~config image weak_mem weak_tk =
  let live = Shift.Session.start ~config image in
  finish live;
  Weak.set weak_mem 0 (Some (hart0 live).Cpu.mem);
  Weak.set weak_tk 0 (Some (Shift.Session.tracking live));
  (Shift.Session.superblock_stats live).Stats.sb_compiled

let[@inline never] code_of_dropped_image ~config weak =
  let image =
    Shift.Session.build ~backend:Backend.Coproc ~mode:Mode.shift_word
      self_modifying_prog
  in
  finish (Shift.Session.start ~config image);
  Weak.set weak 0 (Some (Image.code image))

let retention_tests =
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel
      ~backend:Backend.Coproc ()
  in
  [
    tc "a dropped session's memory and tracking handle are collected"
      (fun () ->
        let image =
          Shift.Session.build ~backend:Backend.Coproc ~mode:Mode.shift_word
            (Test_random.gen_program 5)
        in
        let weak_mem = Weak.create 1 and weak_tk = Weak.create 1 in
        let compiled_a = run_and_forget ~config image weak_mem weak_tk in
        let b = Shift.Session.start ~config image in
        finish b;
        Gc.full_major ();
        Util.check_bool "A's memory is gone" false (Weak.check weak_mem 0);
        Util.check_bool "A's tracking handle is gone" false
          (Weak.check weak_tk 0);
        let sb = Shift.Session.superblock_stats b in
        Util.check_bool "A compiled blocks" true (compiled_a > 0);
        Util.check_bool "B ran A's blocks" true
          (sb.Stats.sb_hits > 0 && sb.Stats.sb_compiled < compiled_a);
        ignore (Sys.opaque_identity (b, image)));
    tc "the code goes with its image and sessions" (fun () ->
        let weak = Weak.create 1 in
        code_of_dropped_image ~config weak;
        Gc.full_major ();
        Util.check_bool "the code is gone" false (Weak.check weak 0));
  ]

(* ---------- property: on vs off identical for random programs ---------- *)

let identity_test =
  QCheck.Test.make ~count:25
    ~name:"superblocks on = off: report and flow ring, random programs"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Test_random.gen_program seed in
      (* a small ring wraps, so event order and eviction are covered *)
      let trace = { Shift.Flowtrace.capacity = 32; only = None } in
      let on = run_sliced ~trace ~mode:Mode.shift_word prog in
      let off =
        run_sliced ~trace ~superblocks:false ~mode:Mode.shift_word prog
      in
      report_json (Shift.Session.report on)
      = report_json (Shift.Session.report off)
      && flow_jsonl on = flow_jsonl off)

let sliced_identity_test =
  QCheck.Test.make ~count:15
    ~name:"superblocks on = off under hostile slicing, random programs"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Test_random.gen_program seed in
      let on = run_sliced ~budget:13 ~mode:Mode.shift_word prog in
      let off = run_sliced ~superblocks:false ~mode:Mode.shift_word prog in
      report_json (Shift.Session.report on)
      = report_json (Shift.Session.report off))

let suites =
  [
    ( "superblock.identity",
      List.map QCheck_alcotest.to_alcotest
        [ identity_test; sliced_identity_test ] );
    ("superblock.self_modifying", self_modifying_tests);
    ("superblock.slices", slice_tests);
    ("superblock.snapshot", snapshot_tests);
    ("superblock.sharing", sharing_tests);
    ("superblock.retention", retention_tests);
  ]
