(* GNU Gzip 1.2.4 directory traversal (CVE-2001-1228).

   gzip -N restores the original file name embedded in the compressed
   stream without sanitising it.  The guest is a miniature decompressor
   for an RLE format: header ['N' origname '\n'] followed by
   (count, byte) pairs; count 0 ends the stream.  The embedded name is
   tainted (it comes from the compressed file) and is passed to the
   output-file open — the H1 sink. *)

open Build
open Build.Infix

let program =
  {
    Ir.globals = [];
    funcs =
      [
        (* RLE-decode from src (starting at pos) into dst; returns the
           number of output bytes *)
        func "rle_decode" ~params:[ "src"; "pos"; "limit"; "dst" ]
          ~locals:[ scalar "count"; scalar "byte"; scalar "o"; scalar "k" ]
          [
            set "o" (i 0);
            while_ (v "pos" +: i 1 <: v "limit")
              [
                set "count" (load8 (v "src" +: v "pos"));
                when_ (v "count" ==: i 0) [ Ir.Break ];
                set "byte" (load8 (v "src" +: v "pos" +: i 1));
                set "k" (i 0);
                while_ (v "k" <: v "count")
                  [
                    store8 (v "dst" +: v "o") (v "byte");
                    set "o" (v "o" +: i 1);
                    set "k" (v "k" +: i 1);
                  ];
                set "pos" (v "pos" +: i 2);
              ];
            ret (v "o");
          ];
        func "main" ~params:[]
          ~locals:
            [ scalar "fd"; scalar "buf"; scalar "n"; scalar "pos"; array "name" 128;
              scalar "namelen"; scalar "out"; scalar "outlen"; scalar "ofd" ]
          [
            set "fd" (call "sys_open" [ str "data.gz" ]);
            when_ (v "fd" <: i 0) [ ret (i 1) ];
            set "buf" (call "malloc" [ i 8192 ]);
            set "n" (call "sys_read" [ v "fd"; v "buf"; i 8192 ]);
            when_ (v "n" <: i 2) [ ret (i 1) ];
            set "pos" (i 1);
            set "namelen" (i 0);
            if_ (load8 (v "buf") ==: i (Char.code 'N'))
              [
                (* -N: restore the embedded original name *)
                while_
                  ((v "pos" <: v "n") &&: (load8 (v "buf" +: v "pos") <>: i (Char.code '\n')))
                  [
                    store8 (v "name" +: v "namelen") (load8 (v "buf" +: v "pos"));
                    set "namelen" (v "namelen" +: i 1);
                    set "pos" (v "pos" +: i 1);
                  ];
                set "pos" (v "pos" +: i 1);
              ]
              [ Ir.Expr (call "strcpy" [ v "name"; str "data.out" ]); set "namelen" (i 8) ];
            store8 (v "name" +: v "namelen") (i 0);
            set "out" (call "malloc" [ i 65536 ]);
            set "outlen" (call "rle_decode" [ v "buf"; v "pos"; v "n"; v "out" ]);
            (* create the decompressed file under the embedded name *)
            set "ofd" (call "sys_open" [ v "name" ]);
            ecall "print" [ v "name" ];
            ret (v "outlen");
          ];
      ];
  }

let compressed ~name ~payload =
  let buf = Buffer.create 64 in
  (match name with
  | Some n -> Buffer.add_string buf ("N" ^ n ^ "\n")
  | None -> Buffer.add_string buf "-");
  List.iter
    (fun (count, ch) ->
      Buffer.add_char buf (Char.chr count);
      Buffer.add_char buf ch)
    payload;
  Buffer.add_char buf '\000';
  Buffer.contents buf

let policy =
  { Shift_policy.Policy.default with
    Shift_policy.Policy.taint_files = true;
    h1 = true;
  }

let case =
  {
    Attack_case.cve = "CVE-2001-1228";
    program_name = "GNU Gzip (1.2.4)";
    language = "C";
    attack_type = "Directory Traversal";
    detection_policies = "H1 + Low level policies";
    expected_policy = "H1";
    program;
    policy;
    benign =
      (fun w ->
        Shift_os.World.add_file w "data.gz"
          (compressed ~name:(Some "report.txt") ~payload:[ (5, 'a'); (3, 'b'); (7, 'x') ]));
    exploit =
      (fun w ->
        Shift_os.World.add_file w "data.gz"
          (compressed ~name:(Some "/root/.profile") ~payload:[ (4, '!') ]));
    provenance = None;
    images = [];
    multiproc = None;
    variants = None;
    cache = Shift.Session.image_cache ();
  }
