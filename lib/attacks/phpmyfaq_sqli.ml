(* phpMyFAQ 1.6.8 SQL injection (CVE-2007-2372 class).

   The FAQ page concatenates the [id] request parameter directly into a
   SQL query string.  A parameter like "0' OR '1'='1" injects tainted
   quote characters into the query — policy H3.  A benign numeric id
   taints only digits, which H3 permits. *)

open Build
open Build.Infix

let program =
  {
    Ir.globals = [];
    funcs =
      [
        func "param" ~params:[ "req"; "key"; "out" ]
          ~locals:[ scalar "p"; scalar "k"; scalar "ch" ]
          [
            set "p" (call "strstr" [ v "req"; v "key" ]);
            when_ (v "p" ==: i 0) [ ret (i 0 -: i 1) ];
            set "p" (v "p" +: call "strlen" [ v "key" ]);
            set "k" (i 0);
            while_ (v "k" <: i 200)
              [
                set "ch" (load8 (v "p" +: v "k"));
                when_ ((v "ch" ==: i 0) ||: (v "ch" ==: i (Char.code '&'))
                      ||: (v "ch" ==: i (Char.code ' ')))
                  [ Ir.Break ];
                store8 (v "out" +: v "k") (v "ch");
                set "k" (v "k" +: i 1);
              ];
            store8 (v "out" +: v "k") (i 0);
            ret (v "k");
          ];
        func "lookup_faq" ~params:[ "id" ] ~locals:[ array "query" 512 ]
          [
            Ir.Expr
              (call "sprintf1"
                 [ v "query"; str "SELECT answer FROM faqdata WHERE id = '%s' AND active = 'yes'"; v "id" ]);
            ret (call "sys_sql_exec" [ v "query" ]);
          ];
        func "main" ~params:[]
          ~locals:[ scalar "sock"; array "req" 512; array "id" 256 ]
          [
            set "sock" (call "sys_accept" []);
            when_ (v "sock" <: i 0) [ ret (i 1) ];
            Ir.Expr (call "sys_recv" [ v "sock"; v "req"; i 512 ]);
            when_ (call "param" [ v "req"; str "id="; v "id" ] <: i 0) [ ret (i 2) ];
            Ir.Expr (call "lookup_faq" [ v "id" ]);
            Ir.Expr (call "sys_html_out" [ str "<p>answer served</p>"; i 20 ]);
            ret (i 0);
          ];
      ];
  }

let policy = { Shift_policy.Policy.default with Shift_policy.Policy.h3 = true }

let case =
  {
    Attack_case.cve = "CVE-2007-2372";
    program_name = "phpMyFAQ (1.6.8)";
    language = "PHP";
    attack_type = "SQL Command Injection";
    detection_policies = "H3 + Low level policies";
    expected_policy = "H3";
    program;
    policy;
    benign = (fun w -> Shift_os.World.queue_request w "GET /faq.php?id=42 HTTP/1.0");
    exploit =
      (fun w ->
        Shift_os.World.queue_request w "GET /faq.php?id=0'OR'1'='1 HTTP/1.0");
    (* the injected "0'OR'1'='1" occupies request bytes 16..25 *)
    provenance = Some ("socket", 16, 25);
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
