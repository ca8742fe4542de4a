(* Cross-process command injection: a CGI front end forks a shell.

   The classic CGI attack shape ([cgi_ping] compressed into one
   process) actually spans two: the web server parses the request and
   builds a command line, then forks and execs /bin/sh, and only the
   *shell* passes the attacker's bytes to system().  Detection must
   therefore survive fork (taint bitmap and provenance cloned with the
   address space), exec (argv bytes sampled out of the dying image and
   re-deposited in the fresh one), and fire in the child — with a
   provenance chain that still names the parent's socket bytes.

   Policy H4: tainted data must not contain shell metacharacters when
   used as arguments to system(). *)

open Build
open Build.Infix

(* pid 1, "httpd-cgi": accept a request, extract the host= parameter,
   build the ping command line, hand it to a forked shell *)
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
          ~locals:
            [ scalar "sock"; array "req" 512; array "host" 128; array "cmd" 256;
              scalar "pid"; scalar "st" ]
          [
            set "sock" (call "sys_accept" []);
            when_ (v "sock" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_recv" [ v "sock"; v "req"; i 512 ]);
            when_ (call "host_param" [ v "req"; v "host" ] <: i 0) [ ret (i 2) ];
            Ir.Expr (call "sprintf1" [ v "cmd"; str "ping -c 1 %s"; v "host" ]);
            set "pid" (call "sys_fork" []);
            when_ (v "pid" <: i 0) [ ret (i 3) ];
            when_ (v "pid" ==: i 0)
              [
                (* the child becomes the shell; the raw user bytes cross
                   the exec boundary as argv *)
                Ir.Expr (call "sys_exec" [ str "sh"; v "cmd" ]);
                ret (i 127);
              ];
            set "st" (call "sys_wait" [ v "pid" ]);
            Ir.Expr (call "sys_html_out" [ str "<pre>ping done</pre>"; i 20 ]);
            ret (v "st");
          ];
      ];
  }

(* pid 2, "sh": fetch the command line from argv and run it — the H4
   sink fires here, two process hops away from the socket *)
let shell =
  {
    Ir.globals = [];
    funcs =
      [
        func "main" ~params:[] ~locals:[ array "cmd" 256; scalar "n" ]
          [
            set "n" (call "sys_getarg" [ i 0; v "cmd" ]);
            when_ (v "n" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_system" [ v "cmd" ]);
            ret (i 0);
          ];
      ];
  }

let policy = { Shift_policy.Policy.default with Shift_policy.Policy.h4 = true }

let case =
  {
    Attack_case.cve = "EXT-H4-FORK";
    program_name = "cgi-shell (fork/exec)";
    language = "C";
    attack_type = "Command Injection (cross-process)";
    detection_policies = "H4 + Low level policies";
    expected_policy = "H4";
    program;
    policy;
    benign =
      (fun w ->
        Shift_os.World.queue_request w
          "GET /ping.cgi?host=example.org HTTP/1.0");
    exploit =
      (fun w ->
        Shift_os.World.queue_request w
          "GET /ping.cgi?host=127.0.0.1;cat${IFS}/etc/shadow HTTP/1.0");
    (* the injected host value occupies request bytes 19..48 *)
    provenance = Some ("socket", 19, 48);
    images = [ ("sh", shell) ];
    multiproc = Some "httpd-cgi";
    variants = None;
    cache = Shift.Session.image_cache ();
  }
