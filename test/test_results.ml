(* The machine-readable results layer (Shift.Results) and the bench
   domain pool: JSON round-trips, the schema envelope, and the
   parallel-equals-serial guarantee the harness's tables rest on. *)

module R = Shift.Results
module Pool = Shift.Pool
module Common = Shift_bench.Common
module Spec = Shift_workloads.Spec
module Mode = Shift_compiler.Mode

let tc = Util.tc

let check_roundtrip msg j =
  match R.of_string (R.to_string j) with
  | Ok j' -> Util.check_bool msg true (j = j')
  | Error e -> Alcotest.failf "%s: parse error %s" msg e

let json_tests =
  [
    tc "scalar and container round-trips" (fun () ->
        check_roundtrip "null" R.Null;
        check_roundtrip "bools" (R.List [ R.Bool true; R.Bool false ]);
        check_roundtrip "ints" (R.List [ R.Int 0; R.Int (-42); R.Int max_int ]);
        check_roundtrip "floats"
          (R.List [ R.Float 1.5; R.Float 0.1; R.Float (-3.25e-7); R.Float 2.0 ]);
        check_roundtrip "nested"
          (R.Obj
             [
               ("a", R.List [ R.Obj [ ("b", R.Int 1) ]; R.Null ]);
               ("c", R.Obj []);
               ("d", R.List []);
             ]));
    tc "string escaping round-trips" (fun () ->
        check_roundtrip "quotes/backslash" (R.String {|say "hi" \ bye|});
        check_roundtrip "control chars" (R.String "a\nb\tc\rd\x01e");
        check_roundtrip "utf8 passthrough" (R.String "§3.3.4 — done"));
    tc "minified output parses too" (fun () ->
        let j = R.Obj [ ("xs", R.List [ R.Int 1; R.Int 2 ]); ("f", R.Float 0.5) ] in
        match R.of_string (R.to_string ~minify:true j) with
        | Ok j' -> Util.check_bool "minified" true (j = j')
        | Error e -> Alcotest.failf "minified parse error %s" e);
    tc "parse errors are reported, not raised" (fun () ->
        List.iter
          (fun s ->
            match R.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected parse failure on %S" s)
          [ ""; "{"; "[1,"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ]);
    tc "non-finite floats degrade to null" (fun () ->
        Util.check_bool "nan" true
          (R.to_string ~minify:true (R.Float Float.nan) = "null"));
  ]

(* ---------- printer oracle ---------- *)

(* The byte-at-a-time printer [Results.to_string] replaced, kept as the
   reference: the faster printer must write exactly its bytes. *)
module Reference = struct
  let add_escaped b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let add_float b f =
    if not (Float.is_finite f) then Buffer.add_string b "null"
    else
      let s = Printf.sprintf "%.12g" f in
      let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
      let s =
        if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
        else s ^ ".0"
      in
      Buffer.add_string b s

  let to_string ?(minify = false) j =
    let b = Buffer.create 1024 in
    let nl indent =
      if not minify then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make indent ' ')
      end
    in
    let rec go indent = function
      | R.Null -> Buffer.add_string b "null"
      | R.Bool v -> Buffer.add_string b (if v then "true" else "false")
      | R.Int n -> Buffer.add_string b (string_of_int n)
      | R.Float f -> add_float b f
      | R.String s -> add_escaped b s
      | R.List [] -> Buffer.add_string b "[]"
      | R.List items ->
          Buffer.add_char b '[';
          List.iteri
            (fun i item ->
              if i > 0 then Buffer.add_char b ',';
              nl (indent + 2);
              go (indent + 2) item)
            items;
          nl indent;
          Buffer.add_char b ']'
      | R.Obj [] -> Buffer.add_string b "{}"
      | R.Obj fields ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (key, value) ->
              if i > 0 then Buffer.add_char b ',';
              nl (indent + 2);
              add_escaped b key;
              Buffer.add_char b ':';
              if not minify then Buffer.add_char b ' ';
              go (indent + 2) value)
            fields;
          nl indent;
          Buffer.add_char b '}'
    in
    go 0 j;
    Buffer.contents b
end

(* strings over all 256 byte values, with the escaped ones drawn often *)
let gen_bytes =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [ (4, char); (1, oneofl [ '"'; '\\' ]); (1, map Char.chr (0 -- 0x1f)) ])
      (0 -- 24))

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return R.Null;
                 map (fun v -> R.Bool v) bool;
                 map (fun v -> R.Int v) int;
                 map (fun v -> R.Float v) float;
                 map (fun s -> R.String s) gen_bytes;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> R.List l) (list_size (0 -- 5) (self (n / 3))));
                 ( 1,
                   map
                     (fun l -> R.Obj l)
                     (list_size (0 -- 5) (pair gen_bytes (self (n / 3)))) );
               ]))

let matches_reference j =
  List.for_all
    (fun minify ->
      let expect = Reference.to_string ~minify j in
      let b = Buffer.create 16 in
      R.to_buffer ~minify b j;
      R.to_string ~minify j = expect && Buffer.contents b = expect)
    [ false; true ]

let oracle_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"to_string writes the reference printer's bytes"
         ~count:1000
         (QCheck.make ~print:(Reference.to_string ~minify:true) gen_json)
         matches_reference);
    tc "every byte value, at every offset in a word of plain bytes" (fun () ->
        let at c k = String.make k 'a' ^ String.make 1 c ^ String.make (16 - k) 'a' in
        List.iter
          (fun s ->
            Util.check_bool (Printf.sprintf "%S" s) true
              (matches_reference (R.Obj [ (s, R.String s) ])))
          (String.init 256 Char.chr
          :: List.concat_map
               (fun i -> List.init 17 (at (Char.chr i)))
               (List.init 256 Fun.id)));
    tc "escaping allocates nothing per byte" (fun () ->
        let words n =
          let j = R.String (String.init n (fun i -> "0123456789abcdef".[i land 15])) in
          let b = Buffer.create (n + 2) in
          let before = Gc.minor_words () in
          R.to_buffer b j;
          Gc.minor_words () -. before
        in
        Alcotest.(check (float 0.)) "minor words, 100 000 bytes vs 16" (words 16)
          (words 100_000));
    tc "indentation deeper than one run of spaces" (fun () ->
        let rec nest n j = if n = 0 then j else nest (n - 1) (R.List [ R.Obj [ ("k", j) ] ]) in
        Util.check_bool "nested 60 deep" true (matches_reference (nest 60 (R.Int 1))));
  ]

let stats_tests =
  [
    tc "of_stats carries every counter and slot bucket" (fun () ->
        let s = Shift_machine.Stats.create () in
        s.Shift_machine.Stats.instructions <- 123;
        s.Shift_machine.Stats.cycles <- 456;
        s.Shift_machine.Stats.io_cycles <- 7;
        let j = R.of_stats s in
        check_roundtrip "stats json" j;
        Util.check_bool "cycles" true (R.member "cycles" j = Some (R.Int 456));
        Util.check_bool "instructions" true
          (R.member "instructions" j = Some (R.Int 123));
        match R.member "slots" j with
        | Some (R.Obj slots) ->
            Util.check_int "slot buckets" Shift_isa.Prov.card (List.length slots)
        | _ -> Alcotest.fail "no slots object");
    tc "of_report reflects the run" (fun () ->
        let r = Util.run_prog (Util.main_returning [ Build.ret (Build.i 3) ]) in
        let j = R.of_report r in
        check_roundtrip "report json" j;
        (match R.member "outcome" j with
        | Some o ->
            Util.check_bool "exited" true
              (R.member "kind" o = Some (R.String "exited"));
            Util.check_bool "status" true
              (R.member "status" o = Some (R.String "3"))
        | None -> Alcotest.fail "no outcome");
        Util.check_bool "not detected" true
          (R.member "detected" j = Some (R.Bool false)));
    tc "document carries the schema version" (fun () ->
        let doc =
          R.document ~experiment:"fig7" ~domains:4 ~wall_clock_s:1.25
            (R.Obj [ ("runs", R.List []) ])
        in
        check_roundtrip "document" doc;
        Util.check_bool "version present" true
          (R.member "schema_version" doc = Some (R.Int R.schema_version));
        Util.check_bool "experiment" true
          (R.member "experiment" doc = Some (R.String "fig7"));
        Util.check_bool "domains" true (R.member "domains" doc = Some (R.Int 4)));
  ]

let pool_tests =
  [
    tc "map preserves input order at any width" (fun () ->
        let xs = List.init 100 Fun.id in
        let expect = List.map (fun x -> x * x) xs in
        List.iter
          (fun domains ->
            Util.check_bool
              (Printf.sprintf "order at %d domains" domains)
              true
              (Pool.map ~domains (fun x -> x * x) xs = expect))
          [ 1; 2; 4; 7 ]);
    tc "map re-raises a worker failure" (fun () ->
        match Pool.map ~domains:3 (fun x -> if x = 5 then failwith "boom" else x)
                (List.init 8 Fun.id)
        with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure m -> Util.check_string "message" "boom" m);
    tc "parallel kernel grid equals the serial path" (fun () ->
        (* two kernels x two modes, shrunk for test time; the pool must
           produce cycle counts identical to direct serial runs *)
        let small k = { k with Spec.default_size = max 64 (k.Spec.default_size / 8) } in
        let kernels =
          [ small (List.hd Spec.all); small (Option.get (Spec.find "mcf")) ]
        in
        let modes = [ Mode.shift_word; Mode.shift_byte ] in
        let grid = List.concat_map (fun k -> List.map (fun m -> (k, m)) modes) kernels in
        let cycles_of (k, mode) =
          let image = Shift.Session.build ~mode k.Spec.program in
          let report =
            Shift.Session.run_image ~policy:Shift_policy.Policy.default
              ~fuel:1_000_000_000
              ~setup:(Spec.setup ~tainted:true k)
              image
          in
          report.Shift.Report.stats.Shift_machine.Stats.cycles
        in
        let serial = List.map cycles_of grid in
        let parallel = Pool.map ~domains:2 cycles_of grid in
        List.iteri
          (fun i ((k, mode), (s, p)) ->
            Util.check_int
              (Printf.sprintf "cycles %d %s/%s" i k.Spec.name (Mode.to_string mode))
              s p)
          (List.combine grid (List.combine serial parallel)));
    tc "the shared kernel memo survives concurrent warming" (fun () ->
        (* warm the same (kernel, mode) from several domains at once,
           then check the cached cycle count against a direct run *)
        let k = { (List.hd Spec.all) with Spec.default_size = 64 } in
        Common.warm
          (List.concat_map
             (fun m -> [ (k, m, true); (k, m, true); (k, m, true) ])
             [ Mode.shift_word; Mode.shift_byte ]);
        let direct mode =
          let image = Shift.Session.build ~mode k.Spec.program in
          (Shift.Session.run_image ~policy:Shift_policy.Policy.default
             ~fuel:1_000_000_000
             ~setup:(Spec.setup ~tainted:true k)
             image)
            .Shift.Report.stats
            .Shift_machine.Stats.cycles
        in
        Util.check_int "word cycles" (direct Mode.shift_word)
          (Common.cycles_of k Mode.shift_word);
        Util.check_int "byte cycles" (direct Mode.shift_byte)
          (Common.cycles_of k Mode.shift_byte));
  ]

let suites =
  [
    ("results-json", json_tests);
    ("results-printer", oracle_tests);
    ("results-converters", stats_tests);
    ("bench-pool", pool_tests);
  ]
