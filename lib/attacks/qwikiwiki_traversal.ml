(* Qwikiwiki 1.4.1 directory traversal (CVE-2004-2744).

   The wiki builds the page path from the request's [page] parameter
   without checking for "..", so "page=../../../../etc/passwd" walks
   out of the pages directory.  The page name arrives over the network
   (tainted); opening the composed path is the H2 sink with document
   root "pages". *)

open Build
open Build.Infix

let program =
  {
    Ir.globals = [];
    funcs =
      [
        (* copy the value of [key]= from the query string into out
           (stopping at '&', ' ' or end); returns its length or -1 *)
        func "query_param" ~params:[ "req"; "key"; "out" ]
          ~locals:[ scalar "p"; scalar "len"; scalar "ch" ]
          [
            set "p" (call "strstr" [ v "req"; v "key" ]);
            when_ (v "p" ==: i 0) [ ret (i 0 -: i 1) ];
            set "p" (v "p" +: call "strlen" [ v "key" ]);
            set "len" (i 0);
            while_ (i 1)
              [
                set "ch" (load8 (v "p" +: v "len"));
                when_
                  ((v "ch" ==: i 0) ||: (v "ch" ==: i (Char.code '&'))
                  ||: (v "ch" ==: i (Char.code ' ')))
                  [ Ir.Break ];
                store8 (v "out" +: v "len") (v "ch");
                set "len" (v "len" +: i 1);
              ];
            store8 (v "out" +: v "len") (i 0);
            ret (v "len");
          ];
        func "serve_page" ~params:[ "page" ]
          ~locals:[ array "path" 192; scalar "fd"; array "body" 1024; scalar "n" ]
          [
            Ir.Expr (call "strcpy" [ v "path"; str "pages/" ]);
            Ir.Expr (call "strcat" [ v "path"; v "page" ]);
            Ir.Expr (call "strcat" [ v "path"; str ".txt" ]);
            set "fd" (call "sys_open" [ v "path" ]);
            when_ (v "fd" <: i 0)
              [
                Ir.Expr (call "sys_html_out" [ str "<h1>No such page</h1>"; i 21 ]);
                ret (i 404);
              ];
            set "n" (call "sys_read" [ v "fd"; v "body"; i 1024 ]);
            Ir.Expr (call "sys_html_out" [ v "body"; v "n" ]);
            ret (i 200);
          ];
        func "main" ~params:[]
          ~locals:[ scalar "sock"; array "req" 512; array "page" 128; scalar "len" ]
          [
            set "sock" (call "sys_accept" []);
            when_ (v "sock" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_recv" [ v "sock"; v "req"; i 512 ]);
            set "len" (call "query_param" [ v "req"; str "page="; v "page" ]);
            when_ (v "len" <: i 0) [ ret (i 2) ];
            ret (call "serve_page" [ v "page" ]);
          ];
      ];
  }

let policy =
  { Shift_policy.Policy.default with Shift_policy.Policy.h2 = Some "pages" }

let case =
  {
    Attack_case.cve = "CVE-2004-2744";
    program_name = "Qwikiwiki (1.4.1)";
    language = "PHP";
    attack_type = "Directory Traversal";
    detection_policies = "H2 + Low level policies";
    expected_policy = "H2";
    program;
    policy;
    benign =
      (fun w ->
        Shift_os.World.add_file w ~tainted:false "pages/welcome.txt" "<p>Welcome!</p>";
        Shift_os.World.queue_request w "GET /index.php?page=welcome HTTP/1.0");
    exploit =
      (fun w ->
        Shift_os.World.add_file w ~tainted:false "pages/welcome.txt" "<p>Welcome!</p>";
        Shift_os.World.queue_request w
          "GET /index.php?page=../../../../etc/passwd%00 HTTP/1.0");
    provenance = None;
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
