(* Multi-threaded guests (the paper's future work, §4.4/§8): spawn and
   join, fetchadd-based ticket locks, taint flowing between threads
   through shared memory — and a demonstration of the very bitmap race
   the paper gives as the reason its prototype is single-threaded. *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode

let tc = Util.tc

let run_mt ?(mode = Mode.shift_word) ?quantum ?(fuel = 50_000_000) ?setup prog =
  let threading = Shift.Session.Config.Threads { quantum } in
  Shift.Session.exec
    ~config:(Shift.Session.Config.make ~fuel ?setup ~threading ())
    (Shift.Session.build ~mode prog)

let basics_prog =
  {
    Ir.globals = [];
    funcs =
      [
        func "worker" ~params:[ "x" ] ~locals:[] [ ret (v "x" *: v "x") ];
        func "main" ~params:[] ~locals:[ scalar "t1"; scalar "t2" ]
          [
            set "t1" (call "sys_spawn" [ fnptr "worker"; i 5 ]);
            set "t2" (call "sys_spawn" [ fnptr "worker"; i 6 ]);
            ret (call "sys_join" [ v "t1" ] +: call "sys_join" [ v "t2" ]);
          ];
      ];
  }

let shared_counter_prog ~locked =
  let bump =
    if locked then
      [
        ecall "mutex_lock" [ v "lock" ];
        store64 (v "counter") (load64 (v "counter") +: i 1);
        ecall "mutex_unlock" [ v "lock" ];
      ]
    else [ store64 (v "counter") (load64 (v "counter") +: i 1) ]
  in
  {
    Ir.globals = [ global_zeros "counter" 8; global_zeros "lock" 16 ];
    funcs =
      [
        func "worker" ~params:[ "n" ] ~locals:[ scalar "k" ]
          (for_up "k" (i 0) (v "n") bump @ [ ret (i 0) ]);
        func "main" ~params:[] ~locals:[ scalar "t1"; scalar "t2" ]
          [
            set "t1" (call "sys_spawn" [ fnptr "worker"; i 200 ]);
            set "t2" (call "sys_spawn" [ fnptr "worker"; i 200 ]);
            Ir.Expr (call "sys_join" [ v "t1" ]);
            Ir.Expr (call "sys_join" [ v "t2" ]);
            ret (load64 (v "counter"));
          ];
      ];
  }

let basics_tests =
  [
    tc "spawn and join return thread results" (fun () ->
        Util.check_i64 "25+36" 61L (Util.exit_code (run_mt basics_prog)));
    tc "threads work under every instrumentation mode" (fun () ->
        List.iter
          (fun mode ->
            Util.check_i64 (Mode.to_string mode) 61L
              (Util.exit_code (run_mt ~mode basics_prog)))
          Util.all_modes);
    tc "spawn without SMP support fails gracefully" (fun () ->
        (* the single-threaded runner has no spawn hook *)
        let r = Util.run_prog ~mode:Mode.shift_word basics_prog in
        Util.check_bool "joins of -1 give -2" true
          (Util.exit_code r = -2L));
    tc "join of an unknown tid returns -1" (fun () ->
        let prog = Util.main_returning [ ret (call "sys_join" [ i 42 ]) ] in
        Util.check_i64 "-1" (-1L) (Util.exit_code (run_mt prog)));
    tc "unsynchronised increments lose updates" (fun () ->
        (* the classic read-modify-write race; quantum 7 interleaves
           mid-sequence deterministically *)
        let v = Util.exit_code (run_mt ~quantum:7 (shared_counter_prog ~locked:false)) in
        Util.check_bool (Printf.sprintf "lost updates (%Ld < 400)" v) true (v < 400L));
    tc "the fetchadd ticket lock makes them exact" (fun () ->
        Util.check_i64 "400" 400L
          (Util.exit_code (run_mt ~quantum:7 (shared_counter_prog ~locked:true))));
    tc "fetchadd returns the old value and is atomic" (fun () ->
        let prog =
          Util.main_returning ~locals:[ array "cell" 8; scalar "old" ]
            [
              store64 (v "cell") (i 40);
              set "old" (call "fetchadd" [ v "cell"; i 2 ]);
              ret ((v "old" *: i 1000) +: load64 (v "cell"));
            ]
        in
        Util.check_i64 "40 then 42" 40042L (Util.exit_code (run_mt prog)));
  ]

(* taint crossing threads through shared memory: the producer reads
   tainted input and publishes it; the consumer dereferences it *)
let cross_thread_prog =
  {
    Ir.globals = [ global_zeros "slot" 8; global_zeros "ready" 8 ];
    funcs =
      [
        func "producer" ~params:[ "unused" ] ~locals:[ array "buf" 16 ]
          [
            Ir.Expr (call "sys_read" [ i 0; v "buf"; i 8 ]);
            store64 (v "slot") (load64 (v "buf"));
            store64 (v "ready") (i 1);
            ret (i 0);
          ];
        func "main" ~params:[] ~locals:[ scalar "t"; scalar "p" ]
          [
            set "t" (call "sys_spawn" [ fnptr "producer"; i 0 ]);
            while_ (load64 (v "ready") ==: i 0) [];
            set "p" (load64 (v "slot"));
            Ir.Expr (call "sys_join" [ v "t" ]);
            ret (load64 (v "p"));
          ];
      ];
  }

let taint_tests =
  [
    tc "taint crosses threads through the shared bitmap" (fun () ->
        let payload =
          let b = Buffer.create 8 in
          Buffer.add_int64_le b (Shift_mem.Addr.in_region 1 0x10000L);
          Buffer.contents b
        in
        let r =
          run_mt
            ~setup:(fun w -> Shift_os.World.set_stdin w payload)
            cross_thread_prog
        in
        match r.Shift.Report.outcome with
        | Shift.Report.Alert a ->
            Alcotest.(check string) "L1 in the consumer" "L1" a.Shift_policy.Alert.policy
        | o -> Alcotest.failf "expected L1, got %a" Shift.Report.pp_outcome o);
  ]

(* The §4.4 hazard, demonstrated: two harts' bitmap read-modify-write
   sequences interleave on a shared bitmap byte and one update is lost.
   At word granularity one bitmap byte covers 64 bytes of data, so
   stores 32 bytes apart contend; at byte granularity the same stores
   use different bitmap bytes and stay correct. *)
let race_prog =
  {
    Ir.globals = [ global_zeros "shared" 64 ];
    funcs =
      [
        (* repeatedly store a tainted byte to shared[0] and immediately
           verify its tag.  A concurrent read-modify-write of another
           location sharing the bitmap byte preserves this bit — only a
           torn (raced) update can clear it, so any zero observed here
           is a lost tag *)
        func "tainter" ~params:[ "n" ]
          ~locals:[ array "src" 8; scalar "k"; scalar "x"; scalar "lost" ]
          ([ Ir.Expr (call "sys_taint_set" [ v "src"; i 8; i 1 ]); set "lost" (i 0) ]
          @ for_up "k" (i 0) (v "n")
              [
                set "x" (load64 (v "src"));
                (* tainted full-word store: sets the tag bit *)
                store64 (v "shared") (v "x");
                when_ (call "sys_taint_chk" [ v "shared"; i 1 ] ==: i 0)
                  [ set "lost" (v "lost" +: i 1) ];
                (* clean full-word store: clears it again, so the bit
                   toggles and every iteration reopens the race window *)
                store64 (v "shared") (i 0);
              ]
          @ [ ret (v "lost") ]);
        (* repeatedly store clean full words to shared[32]: at word
           granularity this RMWs the same bitmap byte *)
        func "cleaner" ~params:[ "n" ] ~locals:[ scalar "k" ]
          (for_up "k" (i 0) (v "n") [ store64 (v "shared" +: i 32) (v "k") ] @ [ ret (i 0) ]);
        func "main" ~params:[] ~locals:[ scalar "t1"; scalar "t2" ]
          [
            set "t1" (call "sys_spawn" [ fnptr "tainter"; i 300 ]);
            set "t2" (call "sys_spawn" [ fnptr "cleaner"; i 1200 ]);
            set "t1" (call "sys_join" [ v "t1" ]);
            Ir.Expr (call "sys_join" [ v "t2" ]);
            ret (v "t1");
          ];
      ];
  }

let race_tests =
  [
    tc "word-level bitmap updates race across harts (the paper's caveat)" (fun () ->
        (* small quanta split the instrumentation's bitmap RMW
           sequences; the schedules are deterministic, so sweep a few
           and require that some interleaving loses tags *)
        let losses =
          List.map
            (fun q -> Util.exit_code (run_mt ~quantum:q ~mode:Mode.shift_word race_prog))
            [ 1; 2; 3; 5; 7; 11; 13 ]
        in
        Util.check_bool
          (Printf.sprintf "some interleaving loses tags (%s)"
             (String.concat "," (List.map Int64.to_string losses)))
          true
          (List.exists (fun v -> v > 0L) losses));
    tc "byte-level tags use distinct bitmap bytes here and survive" (fun () ->
        let v = Util.exit_code (run_mt ~quantum:3 ~mode:Mode.shift_byte race_prog) in
        Util.check_i64 "no tag lost" 0L v);
    tc "without interleaving the word-level tags survive too" (fun () ->
        (* a huge quantum makes the threads effectively sequential *)
        let v = Util.exit_code (run_mt ~quantum:1_000_000 ~mode:Mode.shift_word race_prog) in
        Util.check_i64 "no tag lost" 0L v);
  ]

(* a worker that spins forever while main busy-waits in join *)
let runaway_prog =
  {
    Ir.globals = [];
    funcs =
      [
        func "worker" ~params:[ "x" ] ~locals:[]
          [ while_ (i 0 ==: i 0) []; ret (i 0) ];
        func "main" ~params:[] ~locals:[ scalar "t" ]
          [
            set "t" (call "sys_spawn" [ fnptr "worker"; i 0 ]);
            ret (call "sys_join" [ v "t" ]);
          ];
      ];
  }

let fuel_tests =
  [
    tc "fuel 0 times out before any instruction" (fun () ->
        let r = run_mt ~fuel:0 basics_prog in
        (match r.Shift.Report.outcome with
        | Shift.Report.Timeout -> ()
        | o -> Alcotest.failf "expected timeout, got %a" Shift.Report.pp_outcome o);
        Util.check_int "no instructions ran" 0
          r.Shift.Report.stats.Shift_machine.Stats.instructions);
    tc "fuel is a strict cap across harts" (fun () ->
        (* the engine charges every hart's steps against one budget and
           suspends exactly at the boundary *)
        let r =
          run_mt ~fuel:1000 ~quantum:7 runaway_prog
        in
        (match r.Shift.Report.outcome with
        | Shift.Report.Timeout -> ()
        | o -> Alcotest.failf "expected timeout, got %a" Shift.Report.pp_outcome o);
        Util.check_bool "at most 1000 instructions" true
          (r.Shift.Report.stats.Shift_machine.Stats.instructions <= 1000));
    tc "spawned-hart work shows up in the report" (fun () ->
        (* 2x200 locked increments happen on worker harts; the report
           used to show only hart 0's counters *)
        let r = run_mt ~quantum:7 (shared_counter_prog ~locked:true) in
        Util.check_i64 "exact count" 400L (Util.exit_code r);
        Util.check_bool "worker stores aggregated" true
          (r.Shift.Report.stats.Shift_machine.Stats.stores >= 400));
  ]

let suites =
  [
    ("smp.basics", basics_tests);
    ("smp.taint", taint_tests);
    ("smp.bitmap-race", race_tests);
    ("smp.fuel", fuel_tests);
  ]
