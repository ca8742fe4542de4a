module Flowtrace = Shift_machine.Flowtrace

let addr_str a = Format.asprintf "%a" Shift_mem.Addr.pp a
let reg_str r = Shift_isa.Reg.to_string r

let source_json (s : Flowtrace.source) =
  Results.Obj
    [
      ("line", Results.String "source");
      ("sid", Results.Int s.Flowtrace.sid);
      ("channel", Results.String s.channel);
      ("origin", Results.String s.origin);
      ("offset", Results.Int s.offset);
      ("len", Results.Int s.len);
    ]

let detail_fields = function
  | Flowtrace.Ev_birth { src; addr } ->
      ("birth",
       [ ("sid", Results.Int src.Flowtrace.sid) ]
       @ if Int64.equal addr 0L then [] else [ ("addr", Results.String (addr_str addr)) ])
  | Flowtrace.Ev_load { reg; addr; id } ->
      ( "load",
        [
          ("reg", Results.String (reg_str reg));
          ("addr", Results.String (addr_str addr));
          ("id", Results.Int id);
        ] )
  | Flowtrace.Ev_prop { dst; src; id; depth } ->
      ( "prop",
        [
          ("dst", Results.String (reg_str dst));
          ("src", Results.String (reg_str src));
          ("id", Results.Int id);
          ("depth", Results.Int depth);
        ] )
  | Flowtrace.Ev_store { reg; addr; len; id } ->
      ( "store",
        [
          ("reg", Results.String (reg_str reg));
          ("addr", Results.String (addr_str addr));
          ("len", Results.Int len);
          ("id", Results.Int id);
        ] )
  | Flowtrace.Ev_purge { reg } ->
      ("purge", [ ("reg", Results.String (reg_str reg)) ])
  | Flowtrace.Ev_check { reg; tainted } ->
      ( "check",
        [ ("reg", Results.String (reg_str reg)); ("tainted", Results.Bool tainted) ]
      )
  | Flowtrace.Ev_sink { policy; detail } ->
      ( "sink",
        [ ("policy", Results.String policy); ("detail", Results.String detail) ]
      )

let event_json (e : Flowtrace.event) =
  let ev, fields = detail_fields e.Flowtrace.ev in
  Results.Obj
    ([
       ("line", Results.String "event");
       ("seq", Results.Int e.seq);
       ("ip", Results.Int e.ip);
       ("ev", Results.String ev);
     ]
    @ fields)

let jsonl ?(meta = []) ?outcome (ft : Flowtrace.t) =
  let summary = Flowtrace.summary ft in
  let header =
    Results.Obj
      ([
         ("line", Results.String "meta");
         ("v", Results.Int Results.schema_version);
         ("ring", Results.Int ft.Flowtrace.capacity);
         ("events", Results.Int summary.Flowtrace.s_events);
         ("dropped", Results.Int summary.Flowtrace.s_dropped);
       ]
      @ meta)
  in
  let lines =
    (header :: List.map source_json (Flowtrace.sources ft))
    @ List.map event_json (Flowtrace.events ft)
    @ [
        (match Results.of_flow summary with
        | Results.Obj fields -> Results.Obj (("line", Results.String "summary") :: fields)
        | j -> j);
      ]
    @
    match outcome with
    | None -> []
    | Some o -> (
        match Results.of_outcome o with
        | Results.Obj fields -> [ Results.Obj (("line", Results.String "outcome") :: fields) ]
        | j -> [ j ])
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun j ->
      Results.to_buffer ~minify:true b j;
      Buffer.add_char b '\n')
    lines;
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
