(* The bytes of the two observation exports, and of the leak
   detector's verdict, pinned.

   [Flow.jsonl] and the hardware-trace JSONL that [shiftc leak
   --trace-out] writes are compared by [cmp] in CI, but only against a
   second run of the same tree: a writer that is deterministic but wrong
   passes that.  The MD5 of each export below was recorded against the
   tree-based writer that built one [Results.json] per line, so any
   rewrite of the writers has to reproduce its bytes exactly. *)

module Mode = Shift_compiler.Mode
module Session = Shift.Session
module Case = Shift_attacks.Attack_case
module Attacks = Shift_attacks.Attacks
module Catalog = Shift_catalog.Catalog
module Flowtrace = Shift_machine.Flowtrace

let tc = Util.tc
let md5 s = Digest.to_hex (Digest.string s)

(* one case under one input, traced at byte granularity, exported the
   way hostbench's forensics sweep and [shiftc trace --json] export it *)
let flow_export ?meta ?(trace = Flowtrace.default_options) (c : Case.t) ~exploit =
  let mode = Mode.shift_byte in
  let input = if exploit then c.Case.exploit else c.Case.benign in
  let live =
    Session.start ~config:(Case.config ~trace ~mode ~input c) (Case.image ~mode c)
  in
  ignore (Session.advance live ~budget:max_int);
  let ft = Option.get (Session.flowtrace live) in
  (ft, Shift.Flow.jsonl ?meta ?outcome:(Session.outcome live) ft)

(* exploit and benign digest per case, in suite order *)
let case_digests =
  [
    ( "GNU Tar (1.4)",
      "5f08ab97757c5b6da88b24afac48b0ab",
      "014f5643f3fb8ffd6467164d9df90ebb" );
    ( "GNU Gzip (1.2.4)",
      "4942b57848856a4558f9860da683c48c",
      "bc558da6c05c009e493b3ad7df6d5b57" );
    ( "Qwikiwiki (1.4.1)",
      "e3224ba2f47821dc1c086b9eb30cc256",
      "3a44f16b6cdea12ebe92bc0604020fbe" );
    ( "Scry (1.1)",
      "4a32b9150e152a614e03fb558e8a9969",
      "4dc37df955356bd0a6db074fb8338633" );
    ( "php-stats (0.1.9.1b)",
      "c1cbb17ea455d9f3af7d9534a48efef7",
      "685ebbe9b1fc26feec21c6addeae515a" );
    ( "phpSysInfo (2.3)",
      "8ca7b90d0dbafeb4d3ab81cef8f6289e",
      "c6ee46b4d12fec97aefa44e9931f4a0c" );
    ( "phpMyFAQ (1.6.8)",
      "361327943c43ae050d8e113598f6c9f1",
      "786c8811a3efe640813a6a230814781c" );
    ( "Bftpd (0.96 prior)",
      "399a51231b14c2c1f033309721bd01f6",
      "3a4950d4584a09e3df8a6a83e73c4d1f" );
    ( "cgi-shell (fork/exec)",
      "fed6a32788b946ecb92bae50a576d705",
      "c474559250b9c2cc7c746b04bfb9d36d" );
    ( "tar|gzip pipeline",
      "edb8db81d67329a899411a92f026411b",
      "896e0d0b68c9a216eca87e4a5bff86fe" );
  ]

let case_tests =
  List.map
    (fun (c : Case.t) ->
      tc c.Case.program_name (fun () ->
          let name = c.Case.program_name in
          let exploit_md5, benign_md5 =
            match List.find_opt (fun (n, _, _) -> n = name) case_digests with
            | Some (_, e, b) -> (e, b)
            | None -> Alcotest.failf "no pinned digest for %s" name
          in
          let _, exploit = flow_export c ~exploit:true in
          let _, benign = flow_export c ~exploit:false in
          Util.check_string (name ^ " exploit") exploit_md5 (md5 exploit);
          Util.check_string (name ^ " benign") benign_md5 (md5 benign)))
    (Attacks.all @ Attacks.multiproc)

let tar = List.hd Attacks.all

let ring_tests =
  [
    tc "wrapped ring, meta fields" (fun () ->
        let ft, doc =
          flow_export
            ~meta:
              [
                ("image", Shift.Results.String "GNU Tar (1.4)");
                ("mode", Shift.Results.String "byte");
              ]
            ~trace:{ Flowtrace.capacity = 64; only = None }
            tar ~exploit:true
        in
        Util.check_bool "the ring wrapped" true (Flowtrace.dropped ft > 0);
        Util.check_string "digest" "fed8d2b5f7c68aebd0412b2da51cfa6c" (md5 doc));
    tc "kind filter" (fun () ->
        let _, doc =
          flow_export
            ~trace:
              {
                Flowtrace.capacity = 4096;
                only = Some [ Flowtrace.Birth; Flowtrace.Store; Flowtrace.Sink ];
              }
            tar ~exploit:true
        in
        Util.check_string "digest" "e06f317e50855e891aa2e72bcc2f2e3c" (md5 doc));
  ]

(* the baseline variant's hardware trace, as [shiftc leak NAME
   --trace-out FILE] writes it under its default word-granularity mode *)
let leak_export name =
  match Catalog.leak_start ~mode:Mode.shift_word name with
  | Error e -> Alcotest.fail e
  | Ok start ->
      let live = start 0 in
      ignore (Session.advance live ~budget:max_int);
      (live, Shift.Leak.trace_jsonl live)

let leak_tests =
  List.map
    (fun (name, trace_md5, observation) ->
      tc name (fun () ->
          let live, doc = leak_export name in
          let hw = Option.get (Session.hwtrace live) in
          Util.check_string "--trace-out digest" trace_md5 (md5 doc);
          Util.check_string "observation digest" observation
            (Shift.Leak.observation_digest hw)))
    [
      ("aes-table", "0fd4b2c9ef454eeaeb0c909f8e6474d9", "1a7e3315f9fafec4");
      ("aes-ct", "5e7831b3695005c04bd5dac5a81f0857", "da89a909fc1bb37f");
    ]

(* The verdict JSON [shiftc leak --json] prints, over the grid the
   detector's output depends on: both cases, 2/4/8 variants, word and
   byte granularity, both clauses under the nat backend, and one cell
   per case under coproc.  A detector that runs its variants differently
   must still reach these bytes. *)
let verdict_tests =
  let cell ?(backend = Shift_tracking.Backend.Nat) name mode clause count md5_pin =
    tc
      (Printf.sprintf "%s %s %s %d %s" name (Mode.to_string mode)
         (Shift.Leak.clause_to_string clause) count
         (Shift_tracking.Backend.to_string backend))
      (fun () ->
        match Catalog.leak_start ~backend ~mode name with
        | Error e -> Alcotest.fail e
        | Ok start ->
            let v = Shift.Leak.detect ~clause ~count ~start () in
            Util.check_string "verdict digest" md5_pin
              (md5 (Shift.Results.to_string (Shift.Leak.verdict_to_json v))))
  in
  let w = Mode.shift_word and b = Mode.shift_byte in
  let seq = Shift.Leak.Ct_seq and none = Shift.Leak.Ct_none in
  [
    cell "aes-table" w seq 2 "da67a9301cf4b0d6c70be60a9a293f44";
    cell "aes-table" w seq 4 "4e007f4995002f73400622a91b93cbed";
    cell "aes-table" w seq 8 "601d97cd0d403d895f7c092c11c2ce7c";
    cell "aes-table" w none 2 "262b844e7f68b603b1d50770b65b9c95";
    cell "aes-table" w none 4 "4d16d941de45857d19cc177ac07f0bba";
    cell "aes-table" w none 8 "13ec47b197b2e9efe8841fc8f86e8110";
    cell "aes-table" b seq 2 "93ec509f85f733a56440f855741382e3";
    cell "aes-table" b seq 4 "b376267fcaaac502683e3f67d2038eb4";
    cell "aes-table" b seq 8 "99bb3a0a03bbccd8200f654873ef6943";
    cell "aes-table" b none 2 "262b844e7f68b603b1d50770b65b9c95";
    cell "aes-table" b none 4 "4d16d941de45857d19cc177ac07f0bba";
    cell "aes-table" b none 8 "13ec47b197b2e9efe8841fc8f86e8110";
    cell "aes-ct" w seq 2 "27d6ce70266396895762fa1bedfae231";
    cell "aes-ct" w seq 4 "9b39f72718f37fb4c6449978eff30213";
    cell "aes-ct" w seq 8 "f408ccffc4bd71e46e91442c79e05dfb";
    cell "aes-ct" w none 2 "262b844e7f68b603b1d50770b65b9c95";
    cell "aes-ct" w none 4 "4d16d941de45857d19cc177ac07f0bba";
    cell "aes-ct" w none 8 "13ec47b197b2e9efe8841fc8f86e8110";
    cell "aes-ct" b seq 2 "928e8035517129c720f09be5ee1b1838";
    cell "aes-ct" b seq 4 "eaa09e54cbfb7f875ffa10277edd9613";
    cell "aes-ct" b seq 8 "0b2549f6a646ce5cd2b0bc9142d9d624";
    cell "aes-ct" b none 2 "262b844e7f68b603b1d50770b65b9c95";
    cell "aes-ct" b none 4 "4d16d941de45857d19cc177ac07f0bba";
    cell "aes-ct" b none 8 "13ec47b197b2e9efe8841fc8f86e8110";
    cell ~backend:Shift_tracking.Backend.Coproc "aes-table" w seq 4 "eaa5699449f377acd807aeb77bedee4d";
    cell ~backend:Shift_tracking.Backend.Coproc "aes-ct" w seq 4 "3060a96e092314b72bb8db2d9fec10ac";
  ]

(* ---------- the direct writer against the tree encoder ---------- *)

(* The encoder [Flow.jsonl] used before it wrote lines directly: one
   [Results.json] tree per line, addresses through [Format], kept here
   as the reference the direct writer must match byte for byte. *)
module Reference = struct
  let addr_str a = Format.asprintf "%a" Shift_mem.Addr.pp a
  let reg_str r = Shift_isa.Reg.to_string r

  let source_json (s : Flowtrace.source) =
    Shift.Results.Obj
      [
        ("line", Shift.Results.String "source");
        ("sid", Shift.Results.Int s.Flowtrace.sid);
        ("channel", Shift.Results.String s.channel);
        ("origin", Shift.Results.String s.origin);
        ("offset", Shift.Results.Int s.offset);
        ("len", Shift.Results.Int s.len);
      ]

  let detail_fields =
    let open Shift.Results in
    function
    | Flowtrace.Ev_birth { src; addr } ->
        ( "birth",
          [ ("sid", Int src.Flowtrace.sid) ]
          @ if Int64.equal addr 0L then [] else [ ("addr", String (addr_str addr)) ] )
    | Flowtrace.Ev_load { reg; addr; id } ->
        ("load", [ ("reg", String (reg_str reg)); ("addr", String (addr_str addr)); ("id", Int id) ])
    | Flowtrace.Ev_prop { dst; src; id; depth } ->
        ( "prop",
          [
            ("dst", String (reg_str dst));
            ("src", String (reg_str src));
            ("id", Int id);
            ("depth", Int depth);
          ] )
    | Flowtrace.Ev_store { reg; addr; len; id } ->
        ( "store",
          [
            ("reg", String (reg_str reg));
            ("addr", String (addr_str addr));
            ("len", Int len);
            ("id", Int id);
          ] )
    | Flowtrace.Ev_purge { reg } -> ("purge", [ ("reg", String (reg_str reg)) ])
    | Flowtrace.Ev_check { reg; tainted } ->
        ("check", [ ("reg", String (reg_str reg)); ("tainted", Bool tainted) ])
    | Flowtrace.Ev_sink { policy; detail } ->
        ("sink", [ ("policy", String policy); ("detail", String detail) ])

  let event_json (e : Flowtrace.event) =
    let ev, fields = detail_fields e.Flowtrace.ev in
    Shift.Results.Obj
      ([
         ("line", Shift.Results.String "event");
         ("seq", Shift.Results.Int e.seq);
         ("ip", Shift.Results.Int e.ip);
         ("ev", Shift.Results.String ev);
       ]
      @ fields)

  let line j = Shift.Results.to_string ~minify:true j ^ "\n"
end

let direct f x =
  let b = Buffer.create 64 in
  f b x;
  Buffer.contents b

module G = QCheck.Gen

(* ints at the edges as well as anywhere in the 63-bit range *)
let int_gen =
  G.oneof
    [
      G.oneofl [ 0; 1; 9; 10; -1; max_int; min_int; min_int + 1 ];
      G.small_nat;
      G.int;
    ]

(* any of the 8 regions with a 40-bit offset, and arbitrary 64-bit
   patterns (bits outside the implemented offset included) *)
let addr_gen =
  G.oneof
    [
      G.map2
        (fun r off -> Shift_mem.Addr.in_region r (Int64.of_int off))
        (G.int_bound 7) (G.int_bound ((1 lsl 40) - 1));
      G.map2 (fun r off -> Shift_mem.Addr.in_region r off) (G.int_bound 7)
        (G.oneofl [ 0L; 0xfL; 0x10L; 0xffffffffffL ]);
      G.ui64;
    ]

let reg_gen = G.oneof [ G.int_bound (Shift_isa.Reg.count - 1); int_gen ]

(* bytes drawn from all 256 values, in strings short and long enough to
   cross the escaper's 8-byte word steps *)
let bytes_gen =
  G.oneof
    [ G.string_size ~gen:G.char (G.int_bound 40); G.string_size ~gen:G.printable (G.int_bound 40) ]

let source_gen =
  G.map
    (fun (sid, channel, origin, (offset, len)) ->
      { Flowtrace.sid; channel; origin; offset; len })
    (G.quad int_gen bytes_gen bytes_gen (G.pair int_gen int_gen))

let detail_gen =
  G.oneof
    [
      G.map2
        (fun src addr -> Flowtrace.Ev_birth { src; addr })
        source_gen
        (G.oneof [ G.return 0L; addr_gen ]);
      G.map3 (fun reg addr id -> Flowtrace.Ev_load { reg; addr; id }) reg_gen addr_gen int_gen;
      G.map
        (fun (dst, src, id, depth) -> Flowtrace.Ev_prop { dst; src; id; depth })
        (G.quad reg_gen reg_gen int_gen int_gen);
      G.map
        (fun (reg, addr, len, id) -> Flowtrace.Ev_store { reg; addr; len; id })
        (G.quad reg_gen addr_gen int_gen int_gen);
      G.map (fun reg -> Flowtrace.Ev_purge { reg }) reg_gen;
      G.map2 (fun reg tainted -> Flowtrace.Ev_check { reg; tainted }) reg_gen G.bool;
      G.map2 (fun policy detail -> Flowtrace.Ev_sink { policy; detail }) bytes_gen bytes_gen;
    ]

let event_gen = G.map3 (fun seq ip ev -> { Flowtrace.seq; ip; ev }) int_gen int_gen detail_gen

let show_line = Printf.sprintf "%S"

let writer_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"event lines: direct writer = tree encoder" ~count:3000
         (QCheck.make ~print:(fun e -> show_line (Reference.line (Reference.event_json e))) event_gen)
         (fun e -> direct Shift.Flow.add_event e = Reference.line (Reference.event_json e)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"source lines: direct writer = tree encoder" ~count:1000
         (QCheck.make ~print:(fun s -> show_line (Reference.line (Reference.source_json s))) source_gen)
         (fun s -> direct Shift.Flow.add_source s = Reference.line (Reference.source_json s)));
    tc "a birth at address 0 has no addr field" (fun () ->
        let src = { Flowtrace.sid = 3; channel = "spec"; origin = "o"; offset = 0; len = 1 } in
        Util.check_string "line"
          "{\"line\":\"event\",\"seq\":0,\"ip\":7,\"ev\":\"birth\",\"sid\":3}\n"
          (direct Shift.Flow.add_event
             { Flowtrace.seq = 0; ip = 7; ev = Flowtrace.Ev_birth { src; addr = 0L } }));
  ]

let suites =
  [
    ("export.writer", writer_tests);
    ("export.flow-cases", case_tests);
    ("export.flow-ring", ring_tests);
    ("export.leak-trace", leak_tests);
    ("export.leak-verdict", verdict_tests);
  ]
