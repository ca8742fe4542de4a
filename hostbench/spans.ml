(* In-memory spans recorded around calls into the program's layers.

   A span has a name, a start, an end, the span that was open when it
   began (its parent), and the op it belongs to.  Spans are appended to
   a growable array and only read back after the run, so recording
   costs two clock reads and an allocation.  A disabled recorder runs
   the wrapped call and records nothing.  One recorder belongs to one
   domain: the open-span stack is not synchronised. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  op : int;
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  clock : unit -> float;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (** ids of the open spans, innermost first *)
  mutable next : int;
  mutable current_op : int;  (** op id given to spans opened from now on *)
}

let dummy = { id = -1; name = ""; parent = -1; op = -1; start = 0.; stop = 0. }

let create ?(clock = Unix.gettimeofday) ~enabled () =
  { enabled; clock; spans = Array.make 1024 dummy; len = 0; stack = []; next = 0; current_op = -1 }

(* a recorder that records nothing, for untraced code paths *)
let disabled = create ~enabled:false ()

let enabled t = t.enabled
let set_op t op = t.current_op <- op

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let op = t.current_op in
    let start = t.clock () in
    let finish () =
      let stop = t.clock () in
      t.stack <- List.tl t.stack;
      push t { id; name; parent; op; start; stop }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans t = Array.to_list (Array.sub t.spans 0 t.len)
let duration s = s.stop -. s.start

(* A span's self time: its duration minus the time its direct children
   cover.  Children of one parent never overlap (one domain, nested
   calls), so subtracting their durations is exact. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let acc = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (acc +. duration s))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    spans

(* The layer a span name belongs to: the part before the first dot
   ("snapshot.capture" -> "snapshot"). *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time summed per layer, over the spans of [ops] (every op when
   [ops] is omitted), in first-seen order. *)
let self_by_layer ?ops spans =
  let keep s = match ops with None -> true | Some p -> p s.op in
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if keep s then begin
        let l = layer s.name in
        if not (Hashtbl.mem tbl l) then order := l :: !order;
        Hashtbl.replace tbl l
          (self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.)
      end)
    (self_times spans);
  List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order

(* Durations of the spans carrying [name], in recording order. *)
let durations spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    spans
