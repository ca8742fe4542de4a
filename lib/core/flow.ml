module Flowtrace = Shift_machine.Flowtrace

module Addr = Shift_mem.Addr

(* Event and source lines are written straight into the output buffer:
   fixed key literals in a fixed order, ints digit by digit, registers
   and addresses without Format.  Strings that can carry arbitrary bytes
   (source channel and origin, sink policy and detail) go through the
   JSON escaper.  The bytes are those of a minified [Results.json] line
   built field by field; the differential test in test_export.ml holds
   the two encoders equal. *)

let add_reg b r =
  Buffer.add_string b "\"r";
  Results.add_int b r;
  Buffer.add_char b '"'

let rec add_hex b n =
  if n >= 16 then add_hex b (n lsr 4);
  Buffer.add_char b (String.unsafe_get "0123456789abcdef" (n land 15))

(* [Addr.pp]'s "rN:0x<offset>"; the offset has 40 bits, so it fits an
   int *)
let add_addr b a =
  Buffer.add_string b "\"r";
  Buffer.add_char b (Char.unsafe_chr (48 + Addr.region a));
  Buffer.add_string b ":0x";
  add_hex b (Int64.to_int (Addr.offset a));
  Buffer.add_char b '"'

let add_source b (s : Flowtrace.source) =
  Buffer.add_string b "{\"line\":\"source\",\"sid\":";
  Results.add_int b s.sid;
  Buffer.add_string b ",\"channel\":";
  Results.add_escaped b s.channel;
  Buffer.add_string b ",\"origin\":";
  Results.add_escaped b s.origin;
  Buffer.add_string b ",\"offset\":";
  Results.add_int b s.offset;
  Buffer.add_string b ",\"len\":";
  Results.add_int b s.len;
  Buffer.add_string b "}\n"

let add_event b (e : Flowtrace.event) =
  Buffer.add_string b "{\"line\":\"event\",\"seq\":";
  Results.add_int b e.seq;
  Buffer.add_string b ",\"ip\":";
  Results.add_int b e.ip;
  (match e.ev with
  | Flowtrace.Ev_birth { src; addr } ->
      Buffer.add_string b ",\"ev\":\"birth\",\"sid\":";
      Results.add_int b src.Flowtrace.sid;
      (* register-born taint (speculative loads, setnat) has no address *)
      if not (Int64.equal addr 0L) then begin
        Buffer.add_string b ",\"addr\":";
        add_addr b addr
      end
  | Flowtrace.Ev_load { reg; addr; id } ->
      Buffer.add_string b ",\"ev\":\"load\",\"reg\":";
      add_reg b reg;
      Buffer.add_string b ",\"addr\":";
      add_addr b addr;
      Buffer.add_string b ",\"id\":";
      Results.add_int b id
  | Flowtrace.Ev_prop { dst; src; id; depth } ->
      Buffer.add_string b ",\"ev\":\"prop\",\"dst\":";
      add_reg b dst;
      Buffer.add_string b ",\"src\":";
      add_reg b src;
      Buffer.add_string b ",\"id\":";
      Results.add_int b id;
      Buffer.add_string b ",\"depth\":";
      Results.add_int b depth
  | Flowtrace.Ev_store { reg; addr; len; id } ->
      Buffer.add_string b ",\"ev\":\"store\",\"reg\":";
      add_reg b reg;
      Buffer.add_string b ",\"addr\":";
      add_addr b addr;
      Buffer.add_string b ",\"len\":";
      Results.add_int b len;
      Buffer.add_string b ",\"id\":";
      Results.add_int b id
  | Flowtrace.Ev_purge { reg } ->
      Buffer.add_string b ",\"ev\":\"purge\",\"reg\":";
      add_reg b reg
  | Flowtrace.Ev_check { reg; tainted } ->
      Buffer.add_string b ",\"ev\":\"check\",\"reg\":";
      add_reg b reg;
      Buffer.add_string b (if tainted then ",\"tainted\":true" else ",\"tainted\":false")
  | Flowtrace.Ev_sink { policy; detail } ->
      Buffer.add_string b ",\"ev\":\"sink\",\"policy\":";
      Results.add_escaped b policy;
      Buffer.add_string b ",\"detail\":";
      Results.add_escaped b detail);
  Buffer.add_string b "}\n"

(* the three one-off lines stay [Results] trees *)
let add_line b j =
  Results.to_buffer ~minify:true b j;
  Buffer.add_char b '\n'

let tagged tag = function
  | Results.Obj fields -> Results.Obj (("line", Results.String tag) :: fields)
  | j -> j

let jsonl ?(meta = []) ?outcome (ft : Flowtrace.t) =
  let summary = Flowtrace.summary ft in
  let sources = Flowtrace.sources ft in
  let live = summary.Flowtrace.s_events - summary.Flowtrace.s_dropped in
  (* a typical event line is 60-90 bytes and a source line 80-120: one
     allocation up front instead of a doubling per 4 KiB-to-MiB step *)
  let b = Buffer.create (512 + (128 * summary.Flowtrace.s_sources) + (96 * live)) in
  add_line b
    (Results.Obj
       ([
          ("line", Results.String "meta");
          ("v", Results.Int Results.schema_version);
          ("ring", Results.Int ft.Flowtrace.capacity);
          ("events", Results.Int summary.Flowtrace.s_events);
          ("dropped", Results.Int summary.Flowtrace.s_dropped);
        ]
       @ meta));
  List.iter (add_source b) sources;
  Flowtrace.iter_events ft (add_event b);
  add_line b (tagged "summary" (Results.of_flow summary));
  Option.iter (fun o -> add_line b (tagged "outcome" (Results.of_outcome o))) outcome;
  Buffer.contents b

let pp ppf (ft : Flowtrace.t) =
  Format.fprintf ppf "@[<v>";
  (match Flowtrace.sources ft with
  | [] -> Format.fprintf ppf "no taint sources@,"
  | srcs ->
      Format.fprintf ppf "sources:@,";
      List.iter (fun s -> Format.fprintf ppf "  %a@," Flowtrace.pp_source s) srcs);
  (match Flowtrace.events ft with
  | [] -> Format.fprintf ppf "no events@,"
  | evs ->
      Format.fprintf ppf "events:@,";
      List.iter (fun e -> Format.fprintf ppf "  %a@," Flowtrace.pp_event e) evs);
  Format.fprintf ppf "%a@]" Flowtrace.pp_summary (Flowtrace.summary ft)
