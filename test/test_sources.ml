(* The remaining §3.3.1 taint sources: keyboard input (stdin) and
   return values of configured functions. *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode
module World = Shift_os.World

let tc = Util.tc

let stdin_tests =
  [
    tc "stdin data is tainted by default" (fun () ->
        let prog =
          Util.main_returning ~locals:[ array "buf" 32; scalar "n" ]
            [
              set "n" (call "sys_read" [ i 0; v "buf"; i 32 ]);
              ret (call "sys_taint_chk" [ v "buf"; v "n" ]);
            ]
        in
        let r =
          Util.run_prog ~mode:Mode.shift_word
            ~setup:(fun w -> World.set_stdin w "typed!")
            prog
        in
        Util.check_i64 "6 tainted bytes" 6L (Util.exit_code r));
    tc "stdin can be marked trusted" (fun () ->
        let prog =
          Util.main_returning ~locals:[ array "buf" 32; scalar "n" ]
            [
              set "n" (call "sys_read" [ i 0; v "buf"; i 32 ]);
              ret (call "sys_taint_chk" [ v "buf"; v "n" ]);
            ]
        in
        let r =
          Util.run_prog ~mode:Mode.shift_word
            ~setup:(fun w -> World.set_stdin w ~tainted:false "typed!")
            prog
        in
        Util.check_i64 "clean" 0L (Util.exit_code r));
    tc "stdin taint drives detection end to end" (fun () ->
        (* type a pointer at the program; it dereferences it *)
        let prog =
          Util.main_returning ~locals:[ array "buf" 16 ]
            [
              Ir.Expr (call "sys_read" [ i 0; v "buf"; i 8 ]);
              ret (load64 (load64 (v "buf")));
            ]
        in
        let payload =
          let b = Buffer.create 8 in
          Buffer.add_int64_le b (Shift_mem.Addr.in_region 1 0x10000L);
          Buffer.contents b
        in
        match
          (Util.run_prog ~mode:Mode.shift_word
             ~setup:(fun w -> World.set_stdin w payload)
             prog)
            .outcome
        with
        | Shift.Report.Alert a ->
            Alcotest.(check string) "L1" "L1" a.Shift_policy.Alert.policy
        | o -> Alcotest.failf "expected L1, got %a" Shift.Report.pp_outcome o);
  ]

(* a source function whose results the configuration distrusts *)
let reader_prog =
  {
    Ir.globals = [];
    funcs =
      [
        func "read_config_value" ~params:[] ~locals:[] [ ret (i 12345) ];
        func "main" ~params:[] ~locals:[ array "slot" 8; scalar "x" ]
          [
            set "x" (call "read_config_value" []);
            store64 (v "slot") (v "x");
            ret ((call "sys_taint_chk" [ v "slot"; i 8 ] *: i 100000) +: v "x");
          ];
      ];
  }

(* a program under the default session configuration *)
let run ?taint_returns ~mode prog =
  Shift.Session.exec (Shift.Session.build ?taint_returns ~mode prog)

let return_taint_tests =
  List.map
    (fun mode ->
      tc
        (Printf.sprintf "configured return values are tainted (%s)" (Mode.to_string mode))
        (fun () ->
          Util.check_i64 "tainted word + value" 812345L
            (Util.exit_code
               (run ~taint_returns:[ "read_config_value" ] ~mode reader_prog))))
    [
      Mode.shift_word;
      Mode.shift_byte;
      Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh1 };
    ]
  @ [
      tc "configured return values are tainted (software DBT, byte count)" (fun () ->
          Util.check_i64 "8 tainted bytes + value" 812345L
            (Util.exit_code
               (run ~taint_returns:[ "read_config_value" ]
                  ~mode:(Mode.Software_dbt { granularity = Shift_mem.Granularity.Word })
                  reader_prog)));
      tc "without the configuration nothing is tainted" (fun () ->
          Util.check_i64 "clean" 12345L
            (Util.exit_code (run ~mode:Mode.shift_word reader_prog)));
      tc "uninstrumented code ignores the marker" (fun () ->
          Util.check_i64 "runs normally" 12345L
            (Util.exit_code
               (run ~taint_returns:[ "read_config_value" ]
                  ~mode:Mode.Uninstrumented reader_prog)));
      tc "tainted returns flow into sinks" (fun () ->
          let prog =
            {
              Ir.globals = [];
              funcs =
                [
                  func "fetch_remote" ~params:[] ~locals:[] [ ret (str "x' OR 'a'='a") ];
                  func "main" ~params:[] ~locals:[ array "q" 256; scalar "s" ]
                    [
                      set "s" (call "fetch_remote" []);
                      (* the *pointer* is tainted; under the propagate
                         pointer policy its dereferences taint the copy *)
                      Ir.Expr (call "sprintf1" [ v "q"; str "SELECT x WHERE id='%s'"; v "s" ]);
                      Ir.Expr (call "sys_sql_exec" [ v "q" ]);
                      ret (i 0);
                    ];
                ];
            }
          in
          let options =
            { Shift_compiler.Compile.default_options with
              pointer_policy = Propagate_pointer_taint }
          in
          match
            (Shift.Session.exec
               ~config:
                 (Shift.Session.Config.make
                    ~policy:{ Shift_policy.Policy.default with Shift_policy.Policy.h3 = true }
                    ())
               (Shift.Session.build ~options ~taint_returns:[ "fetch_remote" ]
                  ~mode:Mode.shift_byte prog))
              .outcome
          with
          | Shift.Report.Alert a ->
              Alcotest.(check string) "H3" "H3" a.Shift_policy.Alert.policy
          | o -> Alcotest.failf "expected H3, got %a" Shift.Report.pp_outcome o);
    ]

let suites =
  [ ("sources.stdin", stdin_tests); ("sources.taint-returns", return_taint_tests) ]
