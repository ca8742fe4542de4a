(* Directory traversal across a pipeline: tar | gzip.

   The [tar_traversal] archive bug, split the way a real extraction
   pipeline runs it: the front process reads the (tainted) archive and
   streams a member — 32-byte name header plus data — down a pipe to a
   forked-and-exec'd compressor, which trusts the embedded name for its
   output path.  The tainted bytes cross a fork, an exec and a pipe
   before reaching the sink; the H2 policy must still fire in the
   child, and the provenance chain must name the archive bytes read by
   the parent.

   Policy H2: tainted file paths must stay inside the document root
   ("out"). *)

open Build
open Build.Infix

let name_field = 32

(* pid 1, "tar": read one member from the archive and pipe it to the
   compressor child.  The pipe is the process's first descriptor
   allocation, so the read end is always fd 3 — the child relies on
   that, the way a real pipeline relies on stdin being fd 0. *)
let program =
  {
    Ir.globals = [];
    funcs =
      [
        func "main" ~params:[]
          ~locals:
            [ array "fds" 16; scalar "fd"; array "buf" 512; scalar "n";
              scalar "pid"; scalar "st" ]
          [
            Ir.Expr (call "sys_pipe" [ v "fds" ]);
            set "fd" (call "sys_open" [ str "archive.tar" ]);
            when_ (v "fd" <: i 0) [ ret (i 1) ];
            set "n" (call "sys_read" [ v "fd"; v "buf"; i 512 ]);
            when_ (v "n" <: i name_field) [ ret (i 2) ];
            set "pid" (call "sys_fork" []);
            when_ (v "pid" <: i 0) [ ret (i 3) ];
            when_ (v "pid" ==: i 0)
              [
                (* the compressor only reads: drop the inherited write
                   end so the parent's close really is EOF *)
                Ir.Expr (call "sys_close" [ load64 (v "fds" +: i 8) ]);
                Ir.Expr (call "sys_exec" [ str "gzip"; i 0 ]);
                ret (i 127);
              ];
            Ir.Expr (call "sys_close" [ load64 (v "fds") ]);
            Ir.Expr (call "sys_write" [ load64 (v "fds" +: i 8); v "buf"; v "n" ]);
            Ir.Expr (call "sys_close" [ load64 (v "fds" +: i 8) ]);
            set "st" (call "sys_wait" [ v "pid" ]);
            ret (v "st");
          ];
      ];
  }

(* pid 2, "gzip": drain the pipe (inherited read end, fd 3), take the
   leading header as the output name, create the file — the H2 sink *)
let gzip =
  {
    Ir.globals = [];
    funcs =
      [
        func "main" ~params:[]
          ~locals:
            [ array "buf" 512; array "name" 64; scalar "n"; scalar "k";
              scalar "ch"; scalar "ofd" ]
          [
            (* the pipe blocks until the parent has written, then one
               read drains the streamed member *)
            set "n" (call "sys_read" [ i 3; v "buf"; i 512 ]);
            when_ (v "n" <: i name_field) [ ret (i 1) ];
            set "k" (i 0);
            while_ (v "k" <: i name_field)
              [
                set "ch" (load8 (v "buf" +: v "k"));
                when_ (v "ch" ==: i 0) [ Ir.Break ];
                store8 (v "name" +: v "k") (v "ch");
                set "k" (v "k" +: i 1);
              ];
            store8 (v "name" +: v "k") (i 0);
            set "ofd" (call "sys_open" [ v "name" ]);
            ecall "print" [ v "name" ];
            ret (i 0);
          ];
      ];
  }

(* member: NUL-padded 32-byte name header, then the data *)
let archive ~name ~data =
  let padded = name ^ String.make (name_field - String.length name) '\000' in
  padded ^ data

let policy =
  { Shift_policy.Policy.default with
    Shift_policy.Policy.taint_files = true;
    h1 = true;
    h2 = Some "out";
  }

let case =
  {
    Attack_case.cve = "CVE-2001-1267/pipe";
    program_name = "tar|gzip pipeline";
    language = "C";
    attack_type = "Directory Traversal (cross-process)";
    detection_policies = "H1/H2 + Low level policies";
    expected_policy = "H2";
    program;
    policy;
    benign =
      (fun w ->
        Shift_os.World.add_file w ~tainted:true "archive.tar"
          (archive ~name:"notes.txt" ~data:"hello pipeline"));
    exploit =
      (fun w ->
        Shift_os.World.add_file w ~tainted:true "archive.tar"
          (archive ~name:"../../etc/passwd" ~data:"root::0:0::/:/bin/sh"));
    (* the traversal name occupies archive bytes 0..15 *)
    provenance = Some ("file:archive.tar", 0, 15);
    images = [ ("gzip", gzip) ];
    multiproc = Some "tar";
    variants = None;
    cache = Shift.Session.image_cache ();
  }
