(* phpSysInfo 2.3 cross-site scripting (CVE-2003-0536).

   The system-information page reflects request parameters (the display
   language / template selector) into the generated page unescaped.
   The parameter is network data; the page write is the H5 sink. *)

open Build
open Build.Infix

let program =
  {
    Ir.globals =
      [
        global_bytes "os_name" "SimulatedOS 2.6";
        global_bytes "cpu_name" "IA-64-like core, 6-issue";
      ];
    funcs =
      [
        func "emit" ~params:[ "s" ] ~locals:[]
          [ Ir.Expr (call "sys_html_out" [ v "s"; call "strlen" [ v "s" ] ]); ret0 ];
        (* URL-decodes the lng= parameter into out (handles %xx for a
           few common escapes, '+' as space) *)
        func "lng_param" ~params:[ "req"; "out" ]
          ~locals:[ scalar "p"; scalar "k"; scalar "o"; scalar "ch"; scalar "hi"; scalar "lo" ]
          [
            set "p" (call "strstr" [ v "req"; str "lng=" ]);
            when_ (v "p" ==: i 0) [ ret (i 0 -: i 1) ];
            set "p" (v "p" +: i 4);
            set "k" (i 0);
            set "o" (i 0);
            while_ (v "o" <: i 200)
              [
                set "ch" (load8 (v "p" +: v "k"));
                when_ ((v "ch" ==: i 0) ||: (v "ch" ==: i (Char.code ' '))
                      ||: (v "ch" ==: i (Char.code '&')))
                  [ Ir.Break ];
                if_ (v "ch" ==: i (Char.code '+'))
                  [ store8 (v "out" +: v "o") (i (Char.code ' ')); set "k" (v "k" +: i 1) ]
                  [
                    if_ (v "ch" ==: i (Char.code '%'))
                      [
                        set "hi" (call "hexval" [ load8 (v "p" +: v "k" +: i 1) ]);
                        set "lo" (call "hexval" [ load8 (v "p" +: v "k" +: i 2) ]);
                        store8 (v "out" +: v "o") ((v "hi" <<: i 4) |: v "lo");
                        set "k" (v "k" +: i 3);
                      ]
                      [ store8 (v "out" +: v "o") (v "ch"); set "k" (v "k" +: i 1) ];
                  ];
                set "o" (v "o" +: i 1);
              ];
            store8 (v "out" +: v "o") (i 0);
            ret (v "o");
          ];
        func "hexval" ~params:[ "ch" ] ~locals:[]
          [
            when_ ((v "ch" >=: i (Char.code '0')) &&: (v "ch" <=: i (Char.code '9')))
              [ ret (v "ch" -: i (Char.code '0')) ];
            when_ ((v "ch" >=: i (Char.code 'a')) &&: (v "ch" <=: i (Char.code 'f')))
              [ ret (v "ch" -: i (Char.code 'a') +: i 10) ];
            when_ ((v "ch" >=: i (Char.code 'A')) &&: (v "ch" <=: i (Char.code 'F')))
              [ ret (v "ch" -: i (Char.code 'A') +: i 10) ];
            ret (i 0);
          ];
        func "main" ~params:[]
          ~locals:[ scalar "sock"; array "req" 512; array "lng" 256; array "row" 512 ]
          [
            set "sock" (call "sys_accept" []);
            when_ (v "sock" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_recv" [ v "sock"; v "req"; i 512 ]);
            when_ (call "lng_param" [ v "req"; v "lng" ] <: i 0) [ ret (i 2) ];
            ecall "emit" [ str "<html><title>phpSysInfo</title><body>" ];
            Ir.Expr (call "sprintf1" [ v "row"; str "<p>language: %s</p>"; v "lng" ]);
            ecall "emit" [ v "row" ];
            Ir.Expr (call "sprintf1" [ v "row"; str "<p>OS: %s</p>"; v "os_name" ]);
            ecall "emit" [ v "row" ];
            Ir.Expr (call "sprintf1" [ v "row"; str "<p>CPU: %s</p>"; v "cpu_name" ]);
            ecall "emit" [ v "row" ];
            ecall "emit" [ str "</body></html>" ];
            ret (i 0);
          ];
      ];
  }

let policy = { Shift_policy.Policy.default with Shift_policy.Policy.h5 = true }

let case =
  {
    Attack_case.cve = "CVE-2003-0536";
    program_name = "phpSysInfo (2.3)";
    language = "PHP";
    attack_type = "Cross Site Scripting";
    detection_policies = "H5 + Low level policies";
    expected_policy = "H5";
    program;
    policy;
    benign =
      (fun w -> Shift_os.World.queue_request w "GET /index.php?lng=en HTTP/1.0");
    exploit =
      (fun w ->
        Shift_os.World.queue_request w
          "GET /index.php?lng=%3Cscript%3Ealert(1)%3C/script%3E HTTP/1.0");
    provenance = None;
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
