(* Threads: the paper's future-work item, working.

   Two workers hash halves of a tainted file into a shared table under
   a ticket lock; the taint follows the data across harts because the
   bitmap lives in the shared memory.  A third run shows the §4.4
   caveat: with an adversarial scheduling quantum, unserialised bitmap
   updates can tear.

   Run with: dune exec examples/threads.exe *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode
module World = Shift_os.World

let program =
  {
    Ir.globals = [ global_zeros "table" 64; global_zeros "tablelock" 16 ];
    funcs =
      [
        (* arg packs (offset << 16) | length; data lives in the shared
           heap buffer published through the table's last slot *)
        func "worker" ~params:[ "arg" ]
          ~locals:[ scalar "base"; scalar "k"; scalar "h"; scalar "off"; scalar "len" ]
          [
            set "base" (load64 (v "table" +: i 48));
            set "off" (v "arg" >>: i 16);
            set "len" (v "arg" &: i 0xffff);
            set "h" (i 5381);
            Ir.Expr (call "mutex_lock" [ v "tablelock" ]);
            Ir.Expr
              (call "mutex_unlock" [ v "tablelock" ]) (* exercise the lock *);
            set "k" (i 0);
            while_ (v "k" <: v "len")
              [
                set "h" ((v "h" *: i 33) ^: load8 (v "base" +: v "off" +: v "k"));
                set "k" (v "k" +: i 1);
              ];
            (* publish the (tainted) hash under the lock *)
            Ir.Expr (call "mutex_lock" [ v "tablelock" ]);
            store64 (v "table" +: ((v "off" /: i 1024) *: i 8)) (v "h");
            Ir.Expr (call "mutex_unlock" [ v "tablelock" ]);
            ret (v "h");
          ];
        func "main" ~params:[]
          ~locals:[ scalar "fd"; scalar "buf"; scalar "n"; scalar "t1"; scalar "t2" ]
          [
            set "fd" (call "sys_open" [ str "input.dat" ]);
            when_ (v "fd" <: i 0) [ ret (i 1) ];
            set "buf" (call "malloc" [ i 4096 ]);
            set "n" (call "sys_read" [ v "fd"; v "buf"; i 2048 ]);
            store64 (v "table" +: i 48) (v "buf");
            set "t1" (call "sys_spawn" [ fnptr "worker"; i 1024 ]);
            set "t2" (call "sys_spawn" [ fnptr "worker"; (i 1024 <<: i 16) |: i 1024 ]);
            Ir.Expr (call "sys_join" [ v "t1" ]);
            Ir.Expr (call "sys_join" [ v "t2" ]);
            (* both hashes were computed from tainted bytes *)
            ret (call "sys_taint_chk" [ v "table"; i 16 ] );
          ];
      ];
  }

let () =
  let input = String.init 2048 (fun k -> Char.chr (k * 31 mod 251)) in
  let run quantum =
    let config =
      Shift.Session.Config.make
        ~policy:{ Shift.Policy.default with Shift.Policy.taint_files = true }
        ~setup:(fun w -> World.add_file w "input.dat" input)
        ~threading:(Shift.Session.Config.Threads { quantum = Some quantum })
        ()
    in
    Shift.Session.exec ~config (Shift.Session.build ~mode:Mode.shift_word program)
  in
  print_endline "Two harts hash halves of a tainted file into a shared table";
  print_endline "under a fetchadd ticket lock.  The taint crosses threads through";
  print_endline "the shared bitmap: the published hashes' table slots are tainted.";
  print_newline ();
  List.iter
    (fun quantum ->
      let r = run quantum in
      Format.printf "  quantum %-6d -> %a (tainted table bytes: the exit code)@."
        quantum Shift.Report.pp_outcome r.Shift.Report.outcome)
    [ 50; 7; 3 ];
  print_newline ();
  print_endline "(The paper's prototype stays single-threaded because these bitmap";
  print_endline " updates are not serialised; test/test_smp.ml shows the tearing.)"
