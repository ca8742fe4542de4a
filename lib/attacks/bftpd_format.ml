(* Bftpd (before 0.96) format-string attack leading to arbitrary code
   execution (the paper adjusted Bftpd the same way).

   The FTP daemon passes a client-controlled string to a printf-style
   function as its *format*.  On a varargs ABI the attacker's buffer
   doubles as the argument array, so "%n" stores the output length
   through a pointer the attacker embedded in the message — the classic
   GOT-entry overwrite.  The pointer bytes are tainted network data, so
   the store trips policy L2 (tainted store address). *)

open Build
open Build.Infix

let program =
  {
    Ir.globals =
      [
        (* stand-in for the GOT: slot 0 holds the "address of system()" *)
        global_words "got" [ 0xdead_0001L; 0xdead_0002L ];
      ];
    funcs =
      [
        (* handle one command line; the bug: on an unknown command the
           error reply treats the client text as a format string, with
           the client buffer itself as the varargs area *)
        func "handle_command" ~params:[ "cmd" ]
          ~locals:[ array "reply" 512; scalar "n" ]
          [
            when_ (call "strncmp" [ v "cmd"; str "USER "; i 5 ] ==: i 0)
              [
                Ir.Expr (call "sprintf1" [ v "reply"; str "331 Password required for %s\r\n"; v "cmd" +: i 5 ]);
                Ir.Expr (call "sys_write" [ i 1; v "reply"; call "strlen" [ v "reply" ] ]);
                ret (i 331);
              ];
            when_ (call "strncmp" [ v "cmd"; str "QUIT"; i 4 ] ==: i 0) [ ret (i 221) ];
            (* vulnerable path: cmd+8 is the format, cmd is the
               "argument area" (8-byte aligned like a stack) *)
            set "n" (call "vformat" [ v "reply"; v "cmd" +: i 8; v "cmd" ]);
            Ir.Expr (call "sys_write" [ i 1; v "reply"; v "n" ]);
            ret (i 500);
          ];
        func "main" ~params:[]
          ~locals:[ scalar "sock"; array "cmd" 512; scalar "n"; scalar "status" ]
          [
            set "sock" (call "sys_accept" []);
            when_ (v "sock" <: i 0) [ ret (i 1) ];
            set "status" (i 0);
            while_ (i 1)
              [
                Ir.Expr (call "memset" [ v "cmd"; i 0; i 64 ]);
                set "n" (call "sys_recv" [ v "sock"; v "cmd"; i 256 ]);
                when_ (v "n" <=: i 0) [ Ir.Break ];
                set "status" (call "handle_command" [ v "cmd" ]);
                when_ (v "status" ==: i 221) [ Ir.Break ];
              ];
            ret (v "status");
          ];
      ];
  }

(* the exploit message: 8 bytes of little-endian target address (the
   GOT slot), then the format string whose %n writes through it *)
let exploit_payload got_addr =
  let b = Buffer.create 32 in
  Buffer.add_int64_le b got_addr;
  Buffer.add_string b "overwrite:%n";
  Buffer.contents b

(* The GOT address the attacker would have learned from the binary.
   The data segment layout is deterministic: the scratch slot occupies
   the first 8 bytes, [got] follows. *)
let got_addr = Int64.add (Shift_mem.Addr.in_region 1 0x10000L) 8L

let policy = Shift_policy.Policy.default

let case =
  {
    Attack_case.cve = "N/A";
    program_name = "Bftpd (0.96 prior)";
    language = "C";
    attack_type = "Format string attack";
    detection_policies = "L2";
    expected_policy = "L2";
    program;
    policy;
    benign = (fun w -> Shift_os.World.queue_request w "USER bob");
    exploit = (fun w -> Shift_os.World.queue_request w (exploit_payload got_addr));
    provenance = None;
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
