(* GNU Tar 1.4 directory traversal (CVE-2001-1267 class).

   The guest is a miniature archive extractor.  Archive format (text):
   each member is [name '\n' size '\n' data...]; an empty name line ends
   the archive.  Tar 1.4 trusted member names, so an archive containing
   an absolute path overwrites arbitrary files on extraction.  Member
   names come from the (tainted) archive file; opening the output path
   is the H1 sink. *)

open Build
open Build.Infix

let program =
  {
    Ir.globals = [];
    funcs =
      [
        (* parse one decimal line starting at buf+pos; stores the value
           through out (8 bytes) and returns the position after '\n' *)
        func "parse_size_line" ~params:[ "buf"; "pos"; "limit"; "out" ]
          ~locals:[ scalar "nl"; array "num" 24; scalar "len" ]
          [
            set "nl" (call "memchr" [ v "buf" +: v "pos"; i (Char.code '\n'); v "limit" -: v "pos" ]);
            when_ (v "nl" ==: i 0) [ ret (i 0 -: i 1) ];
            set "len" (v "nl" -: (v "buf" +: v "pos"));
            when_ (v "len" >=: i 24) [ ret (i 0 -: i 1) ];
            Ir.Expr (call "memcpy" [ v "num"; v "buf" +: v "pos"; v "len" ]);
            store8 (v "num" +: v "len") (i 0);
            store64 (v "out") (call "atoi" [ v "num" ]);
            ret (v "pos" +: v "len" +: i 1);
          ];
        (* extract one member; returns the new position or -1 *)
        func "extract_member" ~params:[ "buf"; "pos"; "limit" ]
          ~locals:
            [ scalar "nl"; scalar "namelen"; array "name" 128; array "szslot" 8;
              scalar "size"; scalar "fd" ]
          [
            set "nl" (call "memchr" [ v "buf" +: v "pos"; i (Char.code '\n'); v "limit" -: v "pos" ]);
            when_ (v "nl" ==: i 0) [ ret (i 0 -: i 1) ];
            set "namelen" (v "nl" -: (v "buf" +: v "pos"));
            when_ (v "namelen" ==: i 0) [ ret (i 0 -: i 1) ];
            when_ (v "namelen" >=: i 128) [ ret (i 0 -: i 1) ];
            Ir.Expr (call "memcpy" [ v "name"; v "buf" +: v "pos"; v "namelen" ]);
            store8 (v "name" +: v "namelen") (i 0);
            set "pos" (v "pos" +: v "namelen" +: i 1);
            set "pos" (call "parse_size_line" [ v "buf"; v "pos"; v "limit"; v "szslot" ]);
            when_ (v "pos" <: i 0) [ ret (i 0 -: i 1) ];
            set "size" (load64 (v "szslot"));
            (* the member size steers pointer arithmetic, so tar bounds
               checks it; the application-specific rule (§3.3.2) then
               clears its tag *)
            when_ ((v "size" <: i 0) ||: (v "pos" +: v "size" >: v "limit"))
              [ ret (i 0 -: i 1) ];
            set "size" (call "untaint" [ v "size" ]);
            (* "create" the output file: the H1/H2 policy sink *)
            set "fd" (call "sys_open" [ v "name" ]);
            ecall "print" [ v "name" ];
            ecall "print" [ str "\n" ];
            (* skip the member data *)
            ret (v "pos" +: v "size" +: i 1);
          ];
        func "main" ~params:[]
          ~locals:[ scalar "fd"; scalar "buf"; scalar "n"; scalar "pos"; scalar "members" ]
          [
            set "fd" (call "sys_open" [ str "archive.tar" ]);
            when_ (v "fd" <: i 0) [ ret (i 1) ];
            set "buf" (call "malloc" [ i 8192 ]);
            set "n" (call "sys_read" [ v "fd"; v "buf"; i 8192 ]);
            set "pos" (i 0);
            set "members" (i 0);
            while_ (v "pos" <: v "n")
              [
                set "pos" (call "extract_member" [ v "buf"; v "pos"; v "n" ]);
                when_ (v "pos" <: i 0) [ Ir.Break ];
                set "members" (v "members" +: i 1);
              ];
            ret (v "members");
          ];
      ];
  }

let archive members =
  String.concat ""
    (List.map (fun (name, data) ->
         Printf.sprintf "%s\n%d\n%s\n" name (String.length data) data)
       members)

let policy =
  { Shift_policy.Policy.default with
    Shift_policy.Policy.taint_files = true;
    h1 = true;
  }

let case =
  {
    Attack_case.cve = "CVE-2001-1267";
    program_name = "GNU Tar (1.4)";
    language = "C";
    attack_type = "Directory Traversal";
    detection_policies = "H1 + Low level policies";
    expected_policy = "H1";
    program;
    policy;
    benign =
      (fun w ->
        Shift_os.World.add_file w "archive.tar"
          (archive [ ("docs/readme.txt", "hello tar"); ("docs/notes.txt", "more") ]));
    exploit =
      (fun w ->
        Shift_os.World.add_file w "archive.tar"
          (archive [ ("docs/readme.txt", "innocuous"); ("/etc/passwd", "root::0:0::/:/bin/sh") ]));
    (* "/etc/passwd" sits at archive bytes 28..38: 15 name + 1 nl + 1
       size digit + 1 nl + 9 payload + 1 nl *)
    provenance = Some ("file:archive.tar", 28, 38);
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
