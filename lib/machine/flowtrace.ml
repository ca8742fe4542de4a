open Shift_isa
module Provenance = Shift_mem.Provenance

type source = {
  sid : int;
  channel : string;
  origin : string;
  offset : int;
  len : int;
}

type kind = Birth | Load | Prop | Store | Purge | Check | Sink

type detail =
  | Ev_birth of { src : source; addr : int64 }
  | Ev_load of { reg : Reg.t; addr : int64; id : int }
  | Ev_prop of { dst : Reg.t; src : Reg.t; id : int; depth : int }
  | Ev_store of { reg : Reg.t; addr : int64; len : int; id : int }
  | Ev_purge of { reg : Reg.t }
  | Ev_check of { reg : Reg.t; tainted : bool }
  | Ev_sink of { policy : string; detail : string }

type event = { seq : int; ip : int; ev : detail }

let kind_of = function
  | Ev_birth _ -> Birth
  | Ev_load _ -> Load
  | Ev_prop _ -> Prop
  | Ev_store _ -> Store
  | Ev_purge _ -> Purge
  | Ev_check _ -> Check
  | Ev_sink _ -> Sink

let kind_index = function
  | Birth -> 0
  | Load -> 1
  | Prop -> 2
  | Store -> 3
  | Purge -> 4
  | Check -> 5
  | Sink -> 6

let kind_count = 7

let kind_to_string = function
  | Birth -> "birth"
  | Load -> "load"
  | Prop -> "prop"
  | Store -> "store"
  | Purge -> "purge"
  | Check -> "check"
  | Sink -> "sink"

let kind_of_string = function
  | "birth" -> Some Birth
  | "load" -> Some Load
  | "prop" -> Some Prop
  | "store" -> Some Store
  | "purge" -> Some Purge
  | "check" -> Some Check
  | "sink" -> Some Sink
  | _ -> None

let all_kinds = [ Birth; Load; Prop; Store; Purge; Check; Sink ]

type t = {
  mutable enabled : bool;
  capacity : int;
  mask : int;  (* capacity - 1 when capacity is a power of two, else -1 *)
  ring : event array;
  mutable count : int;
  keep : bool array;
  mutable batching : bool;
  scratch : event array;  (* block-local staging while [batching] *)
  mutable scratch_len : int;
  (* Mutable so a multi-process kernel can swap in the running process's
     own shadow at context-switch time: sources and the ring are shared
     machine-wide (ids stay valid in every address space), the per-byte
     map is per-process. *)
  mutable pmap : Provenance.t;
  mutable sources : source list;
  mutable next_id : int;
  spec_sources : (int, source) Hashtbl.t;
  mutable births : int;
  mutable propagations : int;
  mutable purges : int;
  mutable checks : int;
  mutable sink_hits : int;
  mutable max_depth : int;
}

type options = { capacity : int; only : kind list option }

let default_options = { capacity = 4096; only = None }

let dummy_event = { seq = -1; ip = -1; ev = Ev_purge { reg = Reg.zero } }

let make ~enabled { capacity; only } =
  let capacity = max 1 capacity in
  let keep =
    match only with
    | None -> Array.make kind_count true
    | Some ks ->
        let keep = Array.make kind_count false in
        List.iter (fun k -> keep.(kind_index k) <- true) ks;
        keep
  in
  {
    enabled;
    capacity;
    mask = (if capacity land (capacity - 1) = 0 then capacity - 1 else -1);
    ring = Array.make capacity dummy_event;
    count = 0;
    keep;
    batching = false;
    scratch = Array.make 128 dummy_event;
    scratch_len = 0;
    pmap = Provenance.create ();
    sources = [];
    next_id = 1;
    spec_sources = Hashtbl.create 16;
    births = 0;
    propagations = 0;
    purges = 0;
    checks = 0;
    sink_hits = 0;
    max_depth = 0;
  }

let create ?(options = default_options) () = make ~enabled:true options
let disabled () = make ~enabled:false { capacity = 1; only = None }

type regs = { id : int array; depth : int array; washed : int array }

let fresh_regs () =
  {
    id = Array.make Reg.count 0;
    depth = Array.make Reg.count 0;
    washed = Array.make Reg.count 0;
  }

let copy_regs src dst =
  Array.blit src.id 0 dst.id 0 Reg.count;
  Array.blit src.depth 0 dst.depth 0 Reg.count;
  Array.blit src.washed 0 dst.washed 0 Reg.count

(* The ring slot of sequence number [seq]: a power-of-two capacity (the
   default 4096 is one) turns the division into a mask. *)
let slot t seq = if t.mask >= 0 then seq land t.mask else seq mod t.capacity

let flush_scratch t =
  for i = 0 to t.scratch_len - 1 do
    let e = t.scratch.(i) in
    t.ring.(slot t e.seq) <- e
  done;
  t.scratch_len <- 0

let emit t ip ev =
  if t.keep.(kind_index (kind_of ev)) then begin
    let e = { seq = t.count; ip; ev } in
    t.count <- t.count + 1;
    if t.batching then begin
      if t.scratch_len = Array.length t.scratch then flush_scratch t;
      t.scratch.(t.scratch_len) <- e;
      t.scratch_len <- t.scratch_len + 1
    end
    else t.ring.(slot t e.seq) <- e
  end

(* Per-superblock batching: between [begin_batch] and [end_batch] events
   stage in the scratch buffer and land in the ring in one flush.  Slots
   are computed from each event's own [seq], so the ring contents after
   the flush are identical to unbatched emission. *)
let begin_batch t = t.batching <- true

let end_batch t =
  flush_scratch t;
  t.batching <- false

let intern t ~channel ~origin ~offset ~len =
  let src = { sid = t.next_id; channel; origin; offset; len } in
  t.next_id <- t.next_id + len;
  t.sources <- src :: t.sources;
  src

(* ---------- hooks ---------- *)

let on_input t ~ip ~channel ~origin ~offset ~addr ~len ~tainted =
  if len > 0 then
    if tainted then begin
      let src = intern t ~channel ~origin ~offset ~len in
      Provenance.set_span t.pmap ~addr ~len ~first:src.sid;
      t.births <- t.births + 1;
      emit t ip (Ev_birth { src; addr })
    end
    else Provenance.set_range t.pmap ~addr ~len ~id:0

let on_spec_nat t regs ~ip ~dst =
  if dst <> Reg.zero then begin
    let src =
      match Hashtbl.find_opt t.spec_sources ip with
      | Some s -> s
      | None ->
          let s =
            intern t ~channel:"spec"
              ~origin:(Printf.sprintf "speculative load @%d" ip)
              ~offset:0 ~len:1
          in
          Hashtbl.add t.spec_sources ip s;
          s
    in
    regs.id.(dst) <- src.sid;
    regs.depth.(dst) <- 1;
    regs.washed.(dst) <- 0;
    t.births <- t.births + 1;
    emit t ip (Ev_birth { src; addr = 0L })
  end

let on_load t regs ~ip ~dst ~addr ~len =
  if dst <> Reg.zero then begin
    let id = Provenance.first_id t.pmap ~addr ~len in
    regs.id.(dst) <- id;
    regs.depth.(dst) <- (if id = 0 then 0 else 1);
    regs.washed.(dst) <- 0;
    if id <> 0 then begin
      t.propagations <- t.propagations + 1;
      emit t ip (Ev_load { reg = dst; addr; id })
    end
  end

let on_store t regs ~ip ~src ~addr ~len =
  let id = if src = Reg.zero then 0 else regs.id.(src) in
  if id = 0 then Provenance.set_range t.pmap ~addr ~len ~id:0
  else begin
    Provenance.set_range t.pmap ~addr ~len ~id;
    t.propagations <- t.propagations + 1;
    emit t ip (Ev_store { reg = src; addr; len; id })
  end

let on_move t regs ~ip ~dst ~src =
  if dst <> Reg.zero then begin
    let id = if src = Reg.zero then 0 else regs.id.(src) in
    regs.id.(dst) <- id;
    regs.depth.(dst) <- (if src = Reg.zero then 0 else regs.depth.(src));
    regs.washed.(dst) <-
      (if src = Reg.zero || id <> 0 then 0 else regs.washed.(src));
    if id <> 0 then begin
      t.propagations <- t.propagations + 1;
      emit t ip (Ev_prop { dst; src; id; depth = regs.depth.(dst) })
    end
  end

let on_const _t regs ~dst =
  if dst <> Reg.zero then begin
    regs.id.(dst) <- 0;
    regs.depth.(dst) <- 0;
    regs.washed.(dst) <- 0
  end

let on_arith t regs ~ip ~dst ~src1 ~src2 ~clear =
  if dst <> Reg.zero then
    if clear then begin
      if regs.id.(dst) <> 0 then begin
        t.purges <- t.purges + 1;
        emit t ip (Ev_purge { reg = dst })
      end;
      regs.id.(dst) <- 0;
      regs.depth.(dst) <- 0;
      regs.washed.(dst) <- 0
    end
    else begin
      let id1 = regs.id.(src1) in
      let d1 = regs.depth.(src1) in
      let id2, d2 =
        match src2 with None -> (0, 0) | Some r -> (regs.id.(r), regs.depth.(r))
      in
      (* OR-propagation: the destination inherits the first contributing
         source (matching the paper's any-tainted-operand rule). *)
      let id = if id1 <> 0 then id1 else id2 in
      if id = 0 then begin
        regs.id.(dst) <- 0;
        regs.depth.(dst) <- 0;
        (* declassified provenance rides the arithmetic: an address
           computed from an untainted-after-bounds-check index still
           remembers which input bytes steered it (for the side-channel
           detector only; taint semantics are unchanged) *)
        let w1 = regs.washed.(src1) in
        let w2 = match src2 with None -> 0 | Some r -> regs.washed.(r) in
        regs.washed.(dst) <- (if w1 <> 0 then w1 else w2)
      end
      else begin
        let from = if id1 <> 0 then src1 else Option.get src2 in
        let depth = 1 + max d1 d2 in
        regs.id.(dst) <- id;
        regs.depth.(dst) <- depth;
        regs.washed.(dst) <- 0;
        if depth > t.max_depth then t.max_depth <- depth;
        t.propagations <- t.propagations + 1;
        emit t ip (Ev_prop { dst; src = from; id; depth })
      end
    end

let on_check t _regs ~ip ~src ~tainted =
  t.checks <- t.checks + 1;
  if tainted then emit t ip (Ev_check { reg = src; tainted })

let on_setnat t regs ~ip ~reg =
  if reg <> Reg.zero then begin
    let src =
      match Hashtbl.find_opt t.spec_sources ip with
      | Some s -> s
      | None ->
          let s =
            intern t ~channel:"setnat"
              ~origin:(Printf.sprintf "setnat @%d" ip)
              ~offset:0 ~len:1
          in
          Hashtbl.add t.spec_sources ip s;
          s
    in
    regs.id.(reg) <- src.sid;
    regs.depth.(reg) <- 1;
    regs.washed.(reg) <- 0;
    t.births <- t.births + 1;
    emit t ip (Ev_birth { src; addr = 0L })
  end

let on_clrnat t regs ~ip ~reg =
  if reg <> Reg.zero then begin
    if regs.id.(reg) <> 0 then begin
      t.purges <- t.purges + 1;
      emit t ip (Ev_purge { reg });
      (* the purged id survives as declassified provenance: the value is
         no longer tainted, but the side-channel detector can still name
         the input bytes it was derived from *)
      regs.washed.(reg) <- regs.id.(reg)
    end;
    regs.id.(reg) <- 0;
    regs.depth.(reg) <- 0
  end

let on_sink t ~ip ~policy ~detail =
  t.sink_hits <- t.sink_hits + 1;
  emit t ip (Ev_sink { policy; detail })

(* ---------- queries ---------- *)

let byte_id t a = Provenance.get t.pmap a

let source_of_id t id =
  if id = 0 then None
  else List.find_opt (fun s -> s.sid <= id && id < s.sid + s.len) t.sources

let input_offset s id = s.offset + (id - s.sid)

let hop s ~lo ~hi =
  if lo = hi then Printf.sprintf "input %s[%d] via %s" s.channel lo s.origin
  else Printf.sprintf "input %s[%d..%d] via %s" s.channel lo hi s.origin

let chain t ~addr ~positions =
  (* resolve each position, then collapse runs of consecutive positions
     that carry consecutive offsets of the same source *)
  let resolved =
    List.filter_map
      (fun p ->
        let id = byte_id t (Int64.add addr (Int64.of_int p)) in
        match source_of_id t id with
        | Some s -> Some (p, s, input_offset s id)
        | None -> None)
      positions
  in
  let groups =
    (* accumulator entries: (source, lo_off, hi_pos, hi_off) *)
    let rec go acc = function
      | [] -> List.rev acc
      | (p, s, off) :: rest -> (
          match acc with
          | (s', lo, hi_p, hi_off) :: acc'
            when s'.sid = s.sid && p = hi_p + 1 && off = hi_off + 1 ->
              go ((s', lo, p, off) :: acc') rest
          | _ -> go ((s, off, p, off) :: acc) rest)
    in
    go [] resolved
  in
  let hops = List.map (fun (s, lo, _, hi) -> hop s ~lo ~hi) groups in
  (* drop adjacent duplicates (e.g. the same span hit twice) *)
  let rec dedupe = function
    | a :: b :: rest when String.equal a b -> dedupe (b :: rest)
    | a :: rest -> a :: dedupe rest
    | [] -> []
  in
  dedupe hops

let events t =
  let n = min t.count t.capacity in
  List.init n (fun i -> t.ring.((t.count - n + i) mod t.capacity))

let iter_events t f =
  for seq = max 0 (t.count - t.capacity) to t.count - 1 do
    f t.ring.(slot t seq)
  done

let dropped t = max 0 (t.count - t.capacity)
let sources t = List.rev t.sources

type summary = {
  s_births : int;
  s_propagations : int;
  s_purges : int;
  s_checks : int;
  s_sink_hits : int;
  s_max_depth : int;
  s_events : int;
  s_dropped : int;
  s_sources : int;
}

let summary t =
  {
    s_births = t.births;
    s_propagations = t.propagations;
    s_purges = t.purges;
    s_checks = t.checks;
    s_sink_hits = t.sink_hits;
    s_max_depth = t.max_depth;
    s_events = t.count;
    s_dropped = dropped t;
    s_sources = List.length t.sources;
  }

(* ---------- checkpoint/restore ---------- *)

let provenance t = t.pmap
let set_provenance t pmap = t.pmap <- pmap

type dump = {
  d_enabled : bool;
  d_capacity : int;
  d_keep : bool array;
  d_count : int;
  d_window : event list;
  d_sources : source list;
  d_next_id : int;
  d_spec : (int * int) list;
  d_births : int;
  d_propagations : int;
  d_purges : int;
  d_checks : int;
  d_sink_hits : int;
  d_max_depth : int;
}

let dump t =
  {
    d_enabled = t.enabled;
    d_capacity = t.capacity;
    d_keep = Array.copy t.keep;
    d_count = t.count;
    d_window = events t;
    d_sources = t.sources;
    d_next_id = t.next_id;
    d_spec =
      Hashtbl.fold (fun ip src acc -> (ip, src.sid) :: acc) t.spec_sources []
      |> List.sort compare;
    d_births = t.births;
    d_propagations = t.propagations;
    d_purges = t.purges;
    d_checks = t.checks;
    d_sink_hits = t.sink_hits;
    d_max_depth = t.max_depth;
  }

let of_dump d =
  if Array.length d.d_keep <> kind_count then
    invalid_arg "Flowtrace.of_dump: keep filter arity mismatch";
  let capacity = max 1 d.d_capacity in
  let ring = Array.make capacity dummy_event in
  (* the live window is the last [min count capacity] events; re-seating
     each at [seq mod capacity] reproduces the exact ring layout (older
     slots hold the dummy, which [events] never reads) *)
  List.iter (fun e -> ring.(e.seq mod capacity) <- e) d.d_window;
  let spec_sources = Hashtbl.create 16 in
  List.iter
    (fun (ip, sid) ->
      match List.find_opt (fun s -> s.sid = sid) d.d_sources with
      | Some src -> Hashtbl.add spec_sources ip src
      | None ->
          invalid_arg "Flowtrace.of_dump: spec source not in the source list")
    d.d_spec;
  {
    enabled = d.d_enabled;
    capacity;
    mask = (if capacity land (capacity - 1) = 0 then capacity - 1 else -1);
    ring;
    count = d.d_count;
    keep = Array.copy d.d_keep;
    batching = false;
    scratch = Array.make 128 dummy_event;
    scratch_len = 0;
    pmap = Provenance.create ();
    sources = d.d_sources;
    next_id = d.d_next_id;
    spec_sources;
    births = d.d_births;
    propagations = d.d_propagations;
    purges = d.d_purges;
    checks = d.d_checks;
    sink_hits = d.d_sink_hits;
    max_depth = d.d_max_depth;
  }

(* ---------- printing ---------- *)

let pp_source ppf s =
  Format.fprintf ppf "#%d %s[%d..%d] via %s" s.sid s.channel s.offset
    (s.offset + s.len - 1)
    s.origin

let pp_addr ppf a = Shift_mem.Addr.pp ppf a

let pp_detail ppf = function
  | Ev_birth { src; addr } ->
      if Int64.equal addr 0L then Format.fprintf ppf "birth %a" pp_source src
      else Format.fprintf ppf "birth %a at %a" pp_source src pp_addr addr
  | Ev_load { reg; addr; id } ->
      Format.fprintf ppf "load  %a <- %a (id %d)" Reg.pp reg pp_addr addr id
  | Ev_prop { dst; src; id; depth } ->
      Format.fprintf ppf "prop  %a <- %a (id %d, depth %d)" Reg.pp dst Reg.pp
        src id depth
  | Ev_store { reg; addr; len; id } ->
      Format.fprintf ppf "store %a -> %a+%d (id %d)" Reg.pp reg pp_addr addr
        len id
  | Ev_purge { reg } -> Format.fprintf ppf "purge %a" Reg.pp reg
  | Ev_check { reg; tainted } ->
      Format.fprintf ppf "check %a (%s)" Reg.pp reg
        (if tainted then "tainted" else "clean")
  | Ev_sink { policy; detail } ->
      Format.fprintf ppf "sink  %s: %s" policy detail

let pp_event ppf e =
  Format.fprintf ppf "[%6d] ip=%-6d %a" e.seq e.ip pp_detail e.ev

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>births        %d@,propagations  %d@,purges        %d@,checks        \
     %d@,sink hits     %d@,max depth     %d@,events        %d (%d dropped)@,\
     sources       %d@]"
    s.s_births s.s_propagations s.s_purges s.s_checks s.s_sink_hits
    s.s_max_depth s.s_events s.s_dropped s.s_sources
