(* Extension case (policy H4): shell command injection.

   Table 1 lists H4 ("tainted data cannot contain shell meta characters
   when used as arguments to system()") but Table 2 has no command-
   injection row; this case exercises it.  A diagnostics CGI runs
   [ping] against a user-supplied host; a host parameter carrying ';'
   chains an arbitrary command. *)

open Build
open Build.Infix

let program =
  {
    Ir.globals = [];
    funcs =
      [
        func "host_param" ~params:[ "req"; "out" ]
          ~locals:[ scalar "p"; scalar "k"; scalar "ch" ]
          [
            set "p" (call "strstr" [ v "req"; str "host=" ]);
            when_ (v "p" ==: i 0) [ ret (i 0 -: i 1) ];
            set "p" (v "p" +: i 5);
            set "k" (i 0);
            while_ (v "k" <: i 120)
              [
                set "ch" (load8 (v "p" +: v "k"));
                when_ ((v "ch" ==: i 0) ||: (v "ch" ==: i (Char.code ' '))
                      ||: (v "ch" ==: i (Char.code '&')))
                  [ Ir.Break ];
                store8 (v "out" +: v "k") (v "ch");
                set "k" (v "k" +: i 1);
              ];
            store8 (v "out" +: v "k") (i 0);
            ret (v "k");
          ];
        func "main" ~params:[]
          ~locals:[ scalar "sock"; array "req" 512; array "host" 128; array "cmd" 256 ]
          [
            set "sock" (call "sys_accept" []);
            when_ (v "sock" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_recv" [ v "sock"; v "req"; i 512 ]);
            when_ (call "host_param" [ v "req"; v "host" ] <: i 0) [ ret (i 2) ];
            Ir.Expr (call "sprintf1" [ v "cmd"; str "ping -c 1 %s"; v "host" ]);
            (* the H4 sink: the command line still contains raw user bytes *)
            Ir.Expr (call "sys_system" [ v "cmd" ]);
            Ir.Expr (call "sys_html_out" [ str "<pre>ping done</pre>"; i 20 ]);
            ret (i 0);
          ];
      ];
  }

let policy = { Shift_policy.Policy.default with Shift_policy.Policy.h4 = true }

let case =
  {
    Attack_case.cve = "EXT-H4";
    program_name = "cgi-ping (extension)";
    language = "C";
    attack_type = "Command Injection";
    detection_policies = "H4 + Low level policies";
    expected_policy = "H4";
    program;
    policy;
    benign =
      (fun w -> Shift_os.World.queue_request w "GET /ping.cgi?host=example.org HTTP/1.0");
    exploit =
      (fun w ->
        Shift_os.World.queue_request w
          "GET /ping.cgi?host=127.0.0.1;cat${IFS}/etc/shadow HTTP/1.0");
    provenance = None;
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
