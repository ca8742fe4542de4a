(* Lookup-table AES (toy first round): the classic cache side channel.

   The guest reads a 16-byte secret key from a file and, for each byte,
   indexes a 256-entry * 8-byte lookup table — the shape of an AES
   T-table round.  The table spans 32 cache lines, so the *set index* of
   each table access reveals the top five bits of the key byte that
   steered it, even though the index was bounds-checked and untainted
   (taint-wise the program is clean: no policy fires).  Under the ct-seq
   speculation contract the cache-set trace is observable, so the leak
   detector flags the run and names the key bytes via washed provenance.

   [case_ct] is the constant-time rewrite of the same computation: every
   key byte scans the whole table and selects its entry with an
   arithmetic mask, so the access sequence is key-independent and the
   detector reports it clean. *)

open Build
open Build.Infix

(* the table contents are irrelevant to the side channel (only which
   line is touched matters); any fixed permutation-ish data will do *)
let sbox = global_words "sbox" (List.init 256 (fun j -> Int64.of_int ((j * 167 + 13) land 255)))

let prologue =
  [
    set "fd" (call "sys_open" [ str "key.bin" ]);
    when_ (v "fd" <: i 0) [ ret (i 1) ];
    set "buf" (call "malloc" [ i 32 ]);
    set "n" (call "sys_read" [ v "fd"; v "buf"; i 16 ]);
    when_ (v "n" <>: i 16) [ ret (i 1) ];
    set "acc" (i 0);
  ]

(* the leaky kernel: one table load per key byte, indexed by its value.
   The index steers memory, so it is bounds-masked and untainted — the
   §3.3.2 pattern — which is exactly why DIFT alone cannot see this
   leak. *)
let leaky_program =
  {
    Ir.globals = [ sbox ];
    funcs =
      [
        func "main" ~params:[]
          ~locals:
            [ scalar "fd"; scalar "buf"; scalar "n"; scalar "acc";
              scalar "k"; scalar "idx" ]
          (prologue
          @ for_up "k" (i 0) (i 16)
              [
                set "idx" (call "untaint" [ load8 (v "buf" +: v "k") &: i 255 ]);
                set "acc" (v "acc" ^: load64 (v "sbox" +: (v "idx" <<: i 3)));
              ]
          @ [ ret (v "acc" &: i 255) ]);
      ];
  }

(* the constant-time twin: scan all 256 entries per key byte and keep
   the wanted one with a branch-free mask, so the address trace is a
   fixed function of the program, not the key *)
let ct_program =
  {
    Ir.globals = [ sbox ];
    funcs =
      [
        func "main" ~params:[]
          ~locals:
            [ scalar "fd"; scalar "buf"; scalar "n"; scalar "acc";
              scalar "k"; scalar "b"; scalar "j"; scalar "t"; scalar "m" ]
          (prologue
          @ for_up "k" (i 0) (i 16)
              [
                set "b" (call "untaint" [ load8 (v "buf" +: v "k") &: i 255 ]);
                set "j" (i 0);
                while_ (v "j" <: i 256)
                  [
                    set "t" (load64 (v "sbox" +: (v "j" <<: i 3)));
                    set "m" (i 0 -: (v "j" ==: v "b"));
                    set "acc" (v "acc" ^: (v "t" &: v "m"));
                    set "j" (v "j" +: i 1);
                  ];
              ]
          @ [ ret (v "acc" &: i 255) ]);
      ];
  }

(* variant [n]'s 16-byte key: bytes spread across distinct table lines,
   and every variant differs from the baseline in all 16 (tainted) key
   bytes — nothing else in the world changes *)
let key n = String.init 16 (fun k -> Char.chr ((64 * n + 16 * k + 5) land 255))

let set_key n w = Shift_os.World.add_file w "key.bin" (key n)

let policy =
  { Shift_policy.Policy.default with Shift_policy.Policy.taint_files = true }

let case =
  {
    Attack_case.cve = "N/A";
    program_name = "AES-table (toy)";
    language = "C";
    attack_type = "Cache Side Channel";
    detection_policies = "ct-seq contract (leak detector)";
    expected_policy = "none";
    program = leaky_program;
    policy;
    benign = set_key 0;
    exploit = set_key 1;
    provenance = None;
    images = [];
    multiproc = None;
    variants = Some set_key;
    cache = Shift.Session.image_cache ();
  }

let case_ct =
  {
    case with
    Attack_case.program_name = "AES-ct (toy)";
    attack_type = "Cache Side Channel (constant-time)";
    detection_policies = "ct-seq contract (clean)";
    program = ct_program;
    cache = Shift.Session.image_cache ();
  }
