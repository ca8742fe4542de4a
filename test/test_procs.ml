(* The multi-process OS personality: fork/exec/wait, pipes and fd
   inheritance with cross-process taint and provenance, scheduler
   determinism under budget slicing, and mid-fork checkpoint/restore. *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module World = Shift_os.World

let tc = Util.tc
let fuel = 100_000_000

let procs_config ?policy ?setup ?trace ?(images = []) ?comm () =
  Shift.Session.Config.make ?policy ?setup ?trace ~images ~fuel
    ~threading:(Shift.Session.Config.Processes { quantum = None; comm })
    ()

(* run a one-image multi-process program to completion *)
let run ?policy ?setup ?images ?comm ?(mode = Mode.shift_word) ?locals body =
  let image = Shift.Session.build ~mode (Util.main_returning ?locals body) in
  let images =
    Option.map
      (List.map (fun (name, prog) -> (name, Shift.Session.build ~mode prog)))
      images
  in
  Shift.Session.exec ~config:(procs_config ?policy ?setup ?images ?comm ()) image

let fork_tests =
  [
    tc "fork returns the child pid in the parent and 0 in the child"
      (fun () ->
        let r =
          run
            ~locals:[ scalar "pid"; scalar "st" ]
            [
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0) [ ret (i 7) ];
              set "st" (call "sys_wait" [ v "pid" ]);
              ret ((v "pid" *: i 100) +: v "st");
            ]
        in
        (* child is pid 2, exits with 7 *)
        Util.check_i64 "pid*100+status" 207L (Util.exit_code r));
    tc "fork copies memory: the child's writes stay private" (fun () ->
        let r =
          run
            ~locals:[ array "slot" 8; scalar "pid"; scalar "st" ]
            [
              store64 (v "slot") (i 5);
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [ store64 (v "slot") (i 40); ret (load64 (v "slot")) ];
              set "st" (call "sys_wait" [ i 0 ]);
              (* parent still sees 5; child exited with its own 40 *)
              ret ((v "st" *: i 10) +: load64 (v "slot"));
            ]
        in
        Util.check_i64 "child 40, parent 5" 405L (Util.exit_code r));
    tc "getpid tells processes apart" (fun () ->
        let r =
          run
            ~locals:[ scalar "pid"; scalar "st" ]
            [
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0) [ ret (call "sys_getpid" []) ];
              set "st" (call "sys_wait" [ i 0 ]);
              ret ((call "sys_getpid" [] *: i 100) +: v "st");
            ]
        in
        Util.check_i64 "parent 1, child 2" 102L (Util.exit_code r));
    tc "wait blocks until the child exits" (fun () ->
        let r =
          run
            ~locals:[ scalar "pid"; scalar "k"; scalar "acc" ]
            [
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [
                  (* outlive several parent quanta before exiting *)
                  set "k" (i 0);
                  set "acc" (i 0);
                  while_ (v "k" <: i 500)
                    [
                      set "acc" (v "acc" +: v "k");
                      set "k" (v "k" +: i 1);
                    ];
                  ret (i 9);
                ];
              ret (call "sys_wait" [ v "pid" ]);
            ]
        in
        Util.check_i64 "child status" 9L (Util.exit_code r));
    tc "wait with no children returns -1" (fun () ->
        let r = run [ ret (call "sys_wait" [ i 0 ]) ] in
        Util.check_i64 "-1" (-1L) (Util.exit_code r));
    tc "a zombie is reaped exactly once" (fun () ->
        let r =
          run
            ~locals:[ scalar "pid"; scalar "a"; scalar "b" ]
            [
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0) [ ret (i 3) ];
              set "a" (call "sys_wait" [ v "pid" ]);
              set "b" (call "sys_wait" [ v "pid" ]);
              ret ((v "a" *: i 10) +: v "b");
            ]
        in
        (* 3 then -1: the second wait has nothing left to reap *)
        Util.check_i64 "3 then -1" 29L (Util.exit_code r));
    tc "fork fails with -1 on a single-process session" (fun () ->
        let r =
          Util.run_prog ~mode:Mode.shift_word
            (Util.main_returning [ ret (call "sys_fork" []) ])
        in
        Util.check_i64 "-1" (-1L) (Util.exit_code r));
  ]

let pipe_tests =
  [
    tc "a pipe carries bytes from child to parent" (fun () ->
        let r =
          run
            ~locals:[ array "fds" 16; scalar "pid"; array "buf" 32; scalar "n" ]
            [
              Ir.Expr (call "sys_pipe" [ v "fds" ]);
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [
                  Ir.Expr (call "sys_close" [ load64 (v "fds") ]);
                  Ir.Expr
                    (call "sys_write" [ load64 (v "fds" +: i 8); str "ping"; i 4 ]);
                  ret (i 0);
                ];
              Ir.Expr (call "sys_close" [ load64 (v "fds" +: i 8) ]);
              (* blocks until the child has written *)
              set "n" (call "sys_read" [ load64 (v "fds"); v "buf"; i 32 ]);
              Ir.Expr (call "sys_write" [ i 1; v "buf"; v "n" ]);
              Ir.Expr (call "sys_wait" [ i 0 ]);
              ret (v "n");
            ]
        in
        Util.check_i64 "4 bytes" 4L (Util.exit_code r);
        Util.check_string "payload" "ping" r.Shift.Report.output);
    tc "reading a pipe whose writers are gone returns EOF" (fun () ->
        let r =
          run
            ~locals:[ array "fds" 16; array "buf" 8 ]
            [
              Ir.Expr (call "sys_pipe" [ v "fds" ]);
              Ir.Expr (call "sys_close" [ load64 (v "fds" +: i 8) ]);
              ret (call "sys_read" [ load64 (v "fds"); v "buf"; i 8 ]);
            ]
        in
        Util.check_i64 "0 = EOF" 0L (Util.exit_code r));
    tc "child exit closes its write end: the parent sees EOF" (fun () ->
        let r =
          run
            ~locals:
              [ array "fds" 16; scalar "pid"; array "buf" 32; scalar "n";
                scalar "eof" ]
            [
              Ir.Expr (call "sys_pipe" [ v "fds" ]);
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [
                  Ir.Expr
                    (call "sys_write" [ load64 (v "fds" +: i 8); str "xy"; i 2 ]);
                  (* exits without closing anything: process death must
                     release the descriptors *)
                  ret (i 0);
                ];
              Ir.Expr (call "sys_close" [ load64 (v "fds" +: i 8) ]);
              set "n" (call "sys_read" [ load64 (v "fds"); v "buf"; i 32 ]);
              set "eof" (call "sys_read" [ load64 (v "fds"); v "buf"; i 32 ]);
              Ir.Expr (call "sys_wait" [ i 0 ]);
              ret ((v "n" *: i 10) +: v "eof");
            ]
        in
        Util.check_i64 "2 bytes then EOF" 20L (Util.exit_code r));
    tc "writing a pipe with no readers fails" (fun () ->
        let r =
          run
            ~locals:[ array "fds" 16 ]
            [
              Ir.Expr (call "sys_pipe" [ v "fds" ]);
              Ir.Expr (call "sys_close" [ load64 (v "fds") ]);
              ret (call "sys_write" [ load64 (v "fds" +: i 8); str "x"; i 1 ]);
            ]
        in
        Util.check_i64 "-1" (-1L) (Util.exit_code r));
    tc "taint rides the pipe across the fork" (fun () ->
        let r =
          run
            ~setup:(fun w -> World.add_file w ~tainted:true "evil" "abc")
            ~locals:
              [ array "fds" 16; scalar "pid"; scalar "fd"; array "buf" 16;
                array "got" 16; scalar "n" ]
            [
              Ir.Expr (call "sys_pipe" [ v "fds" ]);
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [
                  set "fd" (call "sys_open" [ str "evil" ]);
                  Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 3 ]);
                  Ir.Expr
                    (call "sys_write" [ load64 (v "fds" +: i 8); v "buf"; i 3 ]);
                  ret (i 0);
                ];
              Ir.Expr (call "sys_close" [ load64 (v "fds" +: i 8) ]);
              set "n" (call "sys_read" [ load64 (v "fds"); v "got"; i 16 ]);
              Ir.Expr (call "sys_wait" [ i 0 ]);
              ret ((v "n" *: i 10) +: call "sys_taint_chk" [ v "got"; i 3 ]);
            ]
        in
        (* 3 bytes arrived, all 3 tainted in the parent's bitmap *)
        Util.check_i64 "3 bytes, 3 tainted" 33L (Util.exit_code r));
    tc "dup'd descriptors alias the same pipe end" (fun () ->
        let r =
          run
            ~locals:
              [ array "fds" 16; scalar "d"; array "buf" 8; scalar "n" ]
            [
              Ir.Expr (call "sys_pipe" [ v "fds" ]);
              set "d" (call "sys_dup" [ load64 (v "fds") ]);
              Ir.Expr (call "sys_close" [ load64 (v "fds") ]);
              Ir.Expr (call "sys_write" [ load64 (v "fds" +: i 8); str "ok"; i 2 ]);
              (* the original read fd is closed; the dup still reads *)
              set "n" (call "sys_read" [ v "d"; v "buf"; i 8 ]);
              ret (v "n");
            ]
        in
        Util.check_i64 "read through the dup" 2L (Util.exit_code r));
    tc "forked children share stream offsets (fd inheritance)" (fun () ->
        let r =
          run
            ~setup:(fun w -> World.add_file w "f" "abcdef")
            ~locals:[ scalar "fd"; array "buf" 8; scalar "pid" ]
            [
              set "fd" (call "sys_open" [ str "f" ]);
              Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 2 ]);
              Ir.Expr (call "sys_write" [ i 1; v "buf"; i 2 ]);
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [
                  (* inherited fd continues at the shared offset *)
                  Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 2 ]);
                  Ir.Expr (call "sys_write" [ i 1; v "buf"; i 2 ]);
                  ret (i 0);
                ];
              Ir.Expr (call "sys_wait" [ i 0 ]);
              Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 2 ]);
              Ir.Expr (call "sys_write" [ i 1; v "buf"; i 2 ]);
              ret (i 0);
            ]
        in
        Util.check_string "ab / cd / ef in order" "abcdef" r.Shift.Report.output);
    tc "closing an inherited fd in the child leaves the parent's alive"
      (fun () ->
        let r =
          run
            ~setup:(fun w -> World.add_file w "f" "xyz")
            ~locals:[ scalar "fd"; array "buf" 8; scalar "pid" ]
            [
              set "fd" (call "sys_open" [ str "f" ]);
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [ ret (call "sys_close" [ v "fd" ]) ];
              Ir.Expr (call "sys_wait" [ i 0 ]);
              (* parent's descriptor must still be readable *)
              ret (call "sys_read" [ v "fd"; v "buf"; i 8 ]);
            ]
        in
        Util.check_i64 "3 bytes still readable" 3L (Util.exit_code r));
  ]

(* a trivial aux image: fetch argv[0] and report how many of its bytes
   are tainted *)
let echo_image =
  Util.main_returning
    ~locals:[ array "buf" 64; scalar "n" ]
    [
      set "n" (call "sys_getarg" [ i 0; v "buf" ]);
      Ir.Expr (call "sys_write" [ i 1; v "buf"; v "n" ]);
      ret (call "sys_taint_chk" [ v "buf"; v "n" ]);
    ]

let exec_tests =
  [
    tc "fork clones the taint bitmap" (fun () ->
        let r =
          run
            ~setup:(fun w -> World.add_file w ~tainted:true "evil" "abc")
            ~locals:[ scalar "pid"; scalar "fd"; array "buf" 16; scalar "st" ]
            [
              set "fd" (call "sys_open" [ str "evil" ]);
              Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 3 ]);
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [ ret (call "sys_taint_chk" [ v "buf"; i 3 ]) ];
              set "st" (call "sys_wait" [ v "pid" ]);
              ret ((call "sys_taint_chk" [ v "buf"; i 3 ] *: i 10) +: v "st");
            ]
        in
        Util.check_i64 "parent 3, child 3" 33L (Util.exit_code r));
    tc "exec replaces the image and argv taint flows in" (fun () ->
        let r =
          run
            ~images:[ ("echo", echo_image) ]
            ~setup:(fun w -> World.add_file w ~tainted:true "evil" "abc")
            ~locals:
              [ scalar "pid"; scalar "fd"; array "buf" 16; scalar "st" ]
            [
              set "fd" (call "sys_open" [ str "evil" ]);
              Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 3 ]);
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [
                  Ir.Expr (call "sys_exec" [ str "echo"; v "buf" ]);
                  ret (i 127);
                ];
              set "st" (call "sys_wait" [ v "pid" ]);
              ret (v "st");
            ]
        in
        (* the child's exit status is echo's taint count over argv *)
        Util.check_i64 "3 tainted argv bytes" 3L (Util.exit_code r);
        Util.check_string "argv echoed from the new image" "abc"
          r.Shift.Report.output);
    tc "exec of an unknown image returns -1" (fun () ->
        let r =
          run
            ~locals:[ scalar "pid"; scalar "st" ]
            [
              set "pid" (call "sys_fork" []);
              when_ (v "pid" ==: i 0)
                [
                  when_ (call "sys_exec" [ str "nope"; i 0 ] <: i 0)
                    [ ret (i 42) ];
                  ret (i 0);
                ];
              set "st" (call "sys_wait" [ i 0 ]);
              ret (v "st");
            ]
        in
        Util.check_i64 "child saw the failure" 42L (Util.exit_code r));
    tc "getarg outside an exec'd image returns -1" (fun () ->
        let r = run ~locals:[ array "buf" 8 ]
            [ ret (call "sys_getarg" [ i 0; v "buf" ]) ] in
        Util.check_i64 "-1" (-1L) (Util.exit_code r));
  ]

(* the cross-process program used for determinism and checkpointing:
   tainted bytes travel child -> pipe -> parent while both sides also
   burn cycles, so any slicing lands mid-flight *)
let busy_pipeline =
  Util.main_returning
    ~locals:
      [ array "fds" 16; scalar "pid"; scalar "fd"; array "buf" 16;
        array "got" 16; scalar "n"; scalar "k"; scalar "acc" ]
    [
      Ir.Expr (call "sys_pipe" [ v "fds" ]);
      set "pid" (call "sys_fork" []);
      when_ (v "pid" ==: i 0)
        [
          set "fd" (call "sys_open" [ str "evil" ]);
          Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 3 ]);
          set "k" (i 0);
          while_ (v "k" <: i 400) [ set "k" (v "k" +: i 1) ];
          Ir.Expr (call "sys_write" [ load64 (v "fds" +: i 8); v "buf"; i 3 ]);
          ret (i 0);
        ];
      Ir.Expr (call "sys_close" [ load64 (v "fds" +: i 8) ]);
      set "acc" (i 0);
      set "k" (i 0);
      while_ (v "k" <: i 300)
        [ set "acc" (v "acc" +: v "k"); set "k" (v "k" +: i 1) ];
      set "n" (call "sys_read" [ load64 (v "fds"); v "got"; i 16 ]);
      Ir.Expr (call "sys_write" [ i 1; v "got"; v "n" ]);
      Ir.Expr (call "sys_wait" [ i 0 ]);
      ret ((v "n" *: i 10) +: call "sys_taint_chk" [ v "got"; i 3 ]);
    ]

let pipeline_config ?trace () =
  procs_config ?trace
    ~setup:(fun w -> World.add_file w ~tainted:true "evil" "abc")
    ~comm:"parent" ()

let report_json (r : Shift.Report.t) =
  Shift.Results.to_string (Shift.Results.of_report r)

let finish live =
  let rec loop () =
    match Shift.Session.advance live ~budget:max_int with
    | `Yielded -> loop ()
    | `Finished _ -> ()
  in
  loop ()

let sliced ~config ~budget image =
  let live = Shift.Session.start ~config image in
  let rec loop () =
    match Shift.Session.advance live ~budget with
    | `Yielded -> loop ()
    | `Finished _ -> ()
  in
  loop ();
  live

(* the exec turn-over under slicing: the child execs an aux image that
   feeds its tainted argv into the inherited pipe one byte per loop
   iteration, while the parent drains the pipe and folds the size of
   every read into its exit code — so the result pins exactly where
   the scheduler ended each turn, the exec'ing one included *)
let burner_image =
  Util.main_returning
    ~locals:[ array "buf" 64; scalar "n"; scalar "k"; scalar "acc" ]
    [
      set "n" (call "sys_getarg" [ i 0; v "buf" ]);
      set "acc" (i 0);
      set "k" (i 0);
      while_ (v "k" <: i 120)
        [
          set "acc" (v "acc" +: v "k");
          (* the write end is fd 4: the pipe was the first thing the
             parent opened *)
          Ir.Expr (call "sys_write" [ i 4; v "buf" +: (v "k" %: v "n"); i 1 ]);
          set "k" (v "k" +: i 1);
        ];
      ret (call "sys_taint_chk" [ v "buf"; v "n" ]);
    ]

let busy_exec =
  Util.main_returning
    ~locals:
      [ array "fds" 16; scalar "pid"; scalar "fd"; array "buf" 16; scalar "k";
        array "got" 64; scalar "n"; scalar "sizes"; scalar "st" ]
    [
      Ir.Expr (call "sys_pipe" [ v "fds" ]);
      set "fd" (call "sys_open" [ str "evil" ]);
      Ir.Expr (call "sys_read" [ v "fd"; v "buf"; i 3 ]);
      set "pid" (call "sys_fork" []);
      when_ (v "pid" ==: i 0)
        [
          Ir.Expr (call "sys_close" [ load64 (v "fds") ]);
          set "k" (i 0);
          while_ (v "k" <: i 200) [ set "k" (v "k" +: i 1) ];
          Ir.Expr (call "sys_exec" [ str "burner"; v "buf" ]);
          ret (i 127);
        ];
      Ir.Expr (call "sys_close" [ load64 (v "fds" +: i 8) ]);
      set "sizes" (i 0);
      set "n" (call "sys_read" [ load64 (v "fds"); v "got"; i 64 ]);
      while_ (v "n" >: i 0)
        [
          set "sizes" (((v "sizes" *: i 7) +: v "n") %: i 1_000_003);
          set "n" (call "sys_read" [ load64 (v "fds"); v "got"; i 64 ]);
        ];
      set "st" (call "sys_wait" [ v "pid" ]);
      ret ((v "sizes" *: i 10) +: v "st");
    ]

let exec_config () =
  procs_config
    ~setup:(fun w -> World.add_file w ~tainted:true "evil" "abc")
    ~images:[ ("burner", Shift.Session.build ~mode:Mode.shift_word burner_image) ]
    ~comm:"parent" ()

let execed (s : Shift.Snapshot.t) =
  match s.Shift.Snapshot.machine with
  | Shift.Snapshot.M_procs { pm_procs; _ } ->
      List.exists (fun p -> p.Shift.Snapshot.ps_image <> None) pm_procs
  | _ -> false

(* slice until a process has exec'd, checkpoint, serialise, parse
   back, restore *)
let restored_after_exec ~config ~budget image =
  let live = Shift.Session.start ~config image in
  let rec go () =
    (match Shift.Session.advance live ~budget with
    | `Yielded -> ()
    | `Finished _ -> Alcotest.fail "run finished before the exec");
    let snap = Shift.Session.checkpoint live in
    if execed snap then snap else go ()
  in
  let text = Shift.Results.to_string (Shift.Snapshot.to_json (go ())) in
  match Result.bind (Shift.Results.of_string text) Shift.Snapshot.of_json with
  | Error e -> Alcotest.failf "snapshot did not round-trip: %s" e
  | Ok snap -> Shift.Session.restore snap

let determinism_tests =
  [
    tc "an exec'd image's report is byte-identical however the run is sliced"
      (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word busy_exec in
        let config = exec_config () in
        let straight = sliced ~config ~budget:max_int image in
        let want = report_json (Shift.Session.report straight) in
        Util.check_i64 "burner saw 3 tainted argv bytes" 3L
          (Int64.rem (Util.exit_code (Shift.Session.report straight)) 10L);
        List.iter
          (fun budget ->
            Util.check_string
              (Printf.sprintf "budget %d" budget)
              want
              (report_json (Shift.Session.report (sliced ~config ~budget image))))
          [ 97; 13 ];
        let resumed = restored_after_exec ~config ~budget:13 image in
        finish resumed;
        Util.check_string "restored after the exec" want
          (report_json (Shift.Session.report resumed)));
    tc "reports are byte-identical however the run is sliced" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word busy_pipeline in
        let straight = sliced ~config:(pipeline_config ()) ~budget:max_int image in
        let fine = sliced ~config:(pipeline_config ()) ~budget:97 image in
        let finer = sliced ~config:(pipeline_config ()) ~budget:13 image in
        let want = report_json (Shift.Session.report straight) in
        Util.check_i64 "scenario detects the taint" 33L
          (Util.exit_code (Shift.Session.report straight));
        Util.check_string "budget 97" want
          (report_json (Shift.Session.report fine));
        Util.check_string "budget 13" want
          (report_json (Shift.Session.report finer)));
    tc "the coproc backend rejects the multi-process personality" (fun () ->
        let image =
          Shift.Session.build ~backend:Shift_tracking.Backend.Coproc
            ~mode:Mode.shift_word busy_pipeline
        in
        let config =
          Shift.Session.Config.make
            ~threading:(Shift.Session.Config.Processes { quantum = None; comm = None })
            ~backend:Shift_tracking.Backend.Coproc ()
        in
        match Shift.Session.start ~config image with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    tc "a non-positive quantum is refused at start" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word busy_pipeline in
        List.iter
          (fun threading ->
            match
              Shift.Session.start ~config:(Shift.Session.Config.make ~threading ()) image
            with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument")
          Shift.Session.Config.
            [
              Threads { quantum = Some 0 };
              Threads { quantum = Some (-1) };
              Processes { quantum = Some 0; comm = None };
            ]);
  ]

(* drive a fresh session [yields] slices of [budget], checkpoint,
   serialise, parse back, restore, finish *)
let broken ~config ~budget ~yields image =
  let live = Shift.Session.start ~config image in
  for _ = 1 to yields do
    match Shift.Session.advance live ~budget with
    | `Yielded -> ()
    | `Finished _ -> Alcotest.fail "run finished before the checkpoint point"
  done;
  let snap = Shift.Session.checkpoint live in
  let text = Shift.Results.to_string (Shift.Snapshot.to_json snap) in
  (match snap.Shift.Snapshot.machine with
  | Shift.Snapshot.M_procs { pm_procs; _ } ->
      Util.check_bool "checkpoint caught both processes alive" true
        (List.length pm_procs >= 2)
  | _ -> Alcotest.fail "expected a multi-process machine shape");
  let snap =
    match Shift.Results.of_string text with
    | Error e -> Alcotest.failf "snapshot JSON did not parse: %s" e
    | Ok j -> (
        match Shift.Snapshot.of_json j with
        | Error e -> Alcotest.failf "snapshot did not decode: %s" e
        | Ok s -> s)
  in
  let live = Shift.Session.restore snap in
  (live, text)

let snapshot_tests =
  [
    tc "mid-fork checkpoint resumes byte-identically" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word busy_pipeline in
        let reference = sliced ~config:(pipeline_config ()) ~budget:max_int image in
        let resumed, _ = broken ~config:(pipeline_config ()) ~budget:64 ~yields:12 image in
        finish resumed;
        Util.check_string "byte-identical report"
          (report_json (Shift.Session.report reference))
          (report_json (Shift.Session.report resumed)));
    tc "a restored table re-checkpoints byte-identically" (fun () ->
        let image = Shift.Session.build ~mode:Mode.shift_word busy_pipeline in
        let resumed, text =
          broken ~config:(pipeline_config ()) ~budget:64 ~yields:12 image
        in
        let again =
          Shift.Results.to_string
            (Shift.Snapshot.to_json (Shift.Session.checkpoint resumed))
        in
        Util.check_string "snapshot of the restored session" text again);
    tc "a traced mid-fork checkpoint keeps provenance chains" (fun () ->
        let trace = Shift_machine.Flowtrace.default_options in
        let image = Shift.Session.build ~mode:Mode.shift_byte busy_pipeline in
        let reference =
          sliced ~config:(pipeline_config ~trace ()) ~budget:max_int image
        in
        let resumed, _ =
          broken ~config:(pipeline_config ~trace ()) ~budget:64 ~yields:12 image
        in
        finish resumed;
        Util.check_string "byte-identical traced report"
          (report_json (Shift.Session.report reference))
          (report_json (Shift.Session.report resumed));
        Util.check_bool "flow summary survived" true
          ((Shift.Session.report resumed).Shift.Report.flow <> None));
  ]

let suites =
  [
    ("procs.fork", fork_tests);
    ("procs.pipes", pipe_tests);
    ("procs.exec", exec_tests);
    ("procs.determinism", determinism_tests);
    ("procs.snapshot", snapshot_tests);
  ]
