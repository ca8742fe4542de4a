(* Machine-readable results: a tiny JSON layer (the container has no
   yojson) plus converters from the report/stats types.  The emitted
   documents are versioned so the BENCH_*.json files written by the
   harness can be diffed across PRs. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* v2: alert messages and chain hops may carry process identity
   ("[pid N, comm]", "(pid N, comm)") under the multi-process OS
   personality, and the backends experiment payload gained the
   coprocessor stall-knee sweep.
   v3: reports carry the L1D "cache" object (hits/misses/hit_rate), and
   the sidechannel experiment emits hardware-trace digests and
   leak-detector verdicts *)
let schema_version = 3

(* ---------- printing ---------- *)

let hex_digits = "0123456789abcdef"

(* Whether the 8 bytes at [i] hold a byte that needs escaping: below
   0x20, a quote or a backslash.  Bit tricks on one int64 (the
   "has a zero byte" test, and "has a byte below n"), so a long run of
   plain bytes such as a hex payload is skipped a word at a time. *)
let word_needs_escape s i =
  let w = String.get_int64_le s i in
  let has_zero x =
    Int64.(logand (logand (sub x 0x0101010101010101L) (lognot x)) 0x8080808080808080L)
  in
  Int64.(
    logor
      (logand (logand (sub w 0x2020202020202020L) (lognot w)) 0x8080808080808080L)
      (logor (has_zero (logxor w 0x2222222222222222L)) (has_zero (logxor w 0x5c5c5c5c5c5c5c5cL))))
  <> 0L

(* Plain bytes are copied in runs, one blit per run.  Control bytes
   without a short form print as \u00XX; bytes >= 0x80 go out raw. *)
let add_escaped b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let start = ref 0 and i = ref 0 in
  while !i < n do
    if !i + 8 <= n && not (word_needs_escape s !i) then i := !i + 8
    else begin
      (match String.unsafe_get s !i with
      | ('"' | '\\' | '\000' .. '\031') as c -> (
          Buffer.add_substring b s !start (!i - !start);
          start := !i + 1;
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | '\r' -> Buffer.add_string b "\\r"
          | '\t' -> Buffer.add_string b "\\t"
          | c ->
              Buffer.add_string b "\\u00";
              Buffer.add_char b hex_digits.[Char.code c lsr 4];
              Buffer.add_char b hex_digits.[Char.code c land 0xf])
      | _ -> ());
      incr i
    end
  done;
  Buffer.add_substring b s !start (n - !start);
  Buffer.add_char b '"'

(* Shortest representation that parses back to the same float; JSON has
   no NaN/infinity, so those become null. *)
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

(* indentation is copied out of one run of spaces *)
let spaces = String.make 64 ' '

let rec add_spaces b n =
  if n > 0 then begin
    let k = min n (String.length spaces) in
    Buffer.add_substring b spaces 0 k;
    add_spaces b (n - k)
  end

let to_buffer ?(minify = false) b j =
  let nl indent =
    if not minify then begin
      Buffer.add_char b '\n';
      add_spaces b indent
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> add_float b f
    | String s -> add_escaped b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            nl (indent + 2);
            go (indent + 2) item)
          items;
        nl indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
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
  go 0 j

let to_string ?minify j =
  let b = Buffer.create 1024 in
  to_buffer ?minify b j;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Fail of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let utf8_of_code b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | '/' -> Buffer.add_char b '/'; advance ()
           | 'b' -> Buffer.add_char b '\b'; advance ()
           | 'f' -> Buffer.add_char b '\012'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 'r' -> Buffer.add_char b '\r'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'u' -> advance (); utf8_of_code b (parse_hex4 ())
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          loop ()
      | c -> Buffer.add_char b c; advance (); loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail ("bad number " ^ lit)
    else
      match int_of_string_opt lit with
      | Some v -> Int v
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail ("bad number " ^ lit))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((key, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "at offset %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ---------- converters ---------- *)

let of_stats (s : Shift_machine.Stats.t) =
  Obj
    [
      ("instructions", Int s.Shift_machine.Stats.instructions);
      ("cycles", Int s.Shift_machine.Stats.cycles);
      ("loads", Int s.Shift_machine.Stats.loads);
      ("stores", Int s.Shift_machine.Stats.stores);
      ("branches", Int s.Shift_machine.Stats.branches);
      ("predicated_off", Int s.Shift_machine.Stats.predicated_off);
      ("syscalls", Int s.Shift_machine.Stats.syscalls);
      ("io_cycles", Int s.Shift_machine.Stats.io_cycles);
      ( "slots",
        Obj
          (List.init Shift_isa.Prov.card (fun i ->
               let p = Shift_isa.Prov.of_index i in
               (Shift_isa.Prov.to_string p, Int (Shift_machine.Stats.slots s p))))
      );
    ]

let of_flow (f : Shift_machine.Flowtrace.summary) =
  Obj
    [
      ("births", Int f.Shift_machine.Flowtrace.s_births);
      ("propagations", Int f.s_propagations);
      ("purges", Int f.s_purges);
      ("checks", Int f.s_checks);
      ("sink_hits", Int f.s_sink_hits);
      ("max_depth", Int f.s_max_depth);
      ("events", Int f.s_events);
      ("dropped", Int f.s_dropped);
      ("sources", Int f.s_sources);
    ]

let of_outcome = function
  | Report.Exited v ->
      Obj [ ("kind", String "exited"); ("status", String (Int64.to_string v)) ]
  | Report.Alert a ->
      Obj
        ([
           ("kind", String "alert");
           ("policy", String a.Shift_policy.Alert.policy);
           ("message", String a.Shift_policy.Alert.message);
         ]
        @
        (* only traced runs have chains: untraced output is unchanged *)
        match a.Shift_policy.Alert.chain with
        | [] -> []
        | chain -> [ ("chain", List (List.map (fun h -> String h) chain)) ])
  | Report.Fault f ->
      Obj
        [
          ("kind", String "fault");
          ("fault", String (Shift_machine.Fault.to_string f));
        ]
  | Report.Timeout -> Obj [ ("kind", String "timeout") ]

let of_report (r : Report.t) =
  Obj
    ([
       ("outcome", of_outcome r.Report.outcome);
       ("detected", Bool (Report.detected r));
       ("stats", of_stats r.Report.stats);
       ("logged_alerts", Int (List.length r.Report.logged));
       ("output_bytes", Int (String.length r.Report.output));
       ( "cache",
         Obj
           [
             ("hits", Int r.Report.cache_hits);
             ("misses", Int r.Report.cache_misses);
             ("hit_rate", Float (Report.cache_hit_rate r));
           ] );
     ]
    @
    match r.Report.flow with
    | None -> []
    | Some f -> [ ("flow", of_flow f) ])

let document ~experiment ~domains ~wall_clock_s data =
  Obj
    [
      ("schema_version", Int schema_version);
      ("experiment", String experiment);
      ("domains", Int domains);
      ("wall_clock_s", Float wall_clock_s);
      ("data", data);
    ]
