module Image = Shift_compiler.Image
module Cpu = Shift_machine.Cpu
module Smp = Shift_machine.Smp
module Exec = Shift_machine.Exec
module Fault = Shift_machine.Fault
module Stats = Shift_machine.Stats
module Pipeline = Shift_machine.Pipeline
module Cache = Shift_machine.Cache
module Flowtrace = Shift_machine.Flowtrace
module Policy = Shift_policy.Policy
module Alert = Shift_policy.Alert
module World = Shift_os.World
module Process = Shift_os.Process
module Ospipe = Shift_os.Pipe
module Memory = Shift_mem.Memory
module Provenance = Shift_mem.Provenance
module Tracking = Shift_tracking.Tracking
module Backend = Shift_tracking.Backend
module Reg = Shift_isa.Reg

type threading =
  | T_single
  | T_threads of int option
  | T_procs of { tp_quantum : int option; tp_comm : string option }

type config = {
  c_policy : Policy.t;
  c_io_cost : World.io_cost;
  c_fuel : int;
  c_threading : threading;
  c_trace : Flowtrace.options option;
  c_hwtrace : bool;
  c_superblocks : bool;
  c_backend : Backend.t;
  c_images : (string * Image.t) list;
  c_coproc_capacity : int option;
  c_coproc_drain_rate : int option;
  c_coproc_stall_penalty : int option;
}

type hart = {
  h_values : int64 array;
  h_nats : bool array;
  h_preds : bool array;
  h_unat : int64;
  h_ip : int;
  h_stats : Stats.t;
  h_pipe : Pipeline.snap;
  h_cache : Cache.snap;
  h_call_stack : (int * int64) list;
  h_ftregs : (int array * int array) option;
}

type proc_snap = {
  ps_pid : int;
  ps_parent : int;
  ps_image : string option;
  ps_state : Process.state;
  ps_hart : hart;
  ps_mem : (int64 * string) list;
  ps_prov : (int64 * string) list;
  ps_ctx : World.ctx_state;
}

type machine =
  | M_cpu of hart
  | M_smp of {
      sm_quantum : int;
      sm_harts : (int * Smp.state * hart) list;
      sm_round : (int * int) list;
      sm_finished : Cpu.outcome option;
    }
  | M_procs of {
      pm_quantum : int;
      pm_next_pid : int;
      pm_procs : proc_snap list;
      pm_round : (int * int) list;
      pm_finished : Cpu.outcome option;
      pm_retired : Stats.t;
    }

type t = {
  meta : (string * string) list;
  image : Image.t;
  config : config;
  fuel_left : int;
  result : Report.outcome option;
  memory : (int64 * string) list;
  machine : machine;
  world : World.dump;
  flow : (Flowtrace.dump * (int64 * string) list) option;
  tracking : Tracking.dump option;
      (** tag-coprocessor state (queue, tag file, lag clock); [None]
          under the nat and none backends *)
}

let version = 2

(* ---------- capture ---------- *)

let export_cpu ~traced (cpu : Cpu.t) =
  {
    h_values = Array.copy cpu.Cpu.values;
    h_nats = Array.copy cpu.Cpu.nats;
    h_preds = Array.copy cpu.Cpu.preds;
    h_unat = cpu.Cpu.unat;
    h_ip = cpu.Cpu.ip;
    h_stats = Stats.copy cpu.Cpu.stats;
    h_pipe = Pipeline.export cpu.Cpu.pipe;
    h_cache = Cache.export cpu.Cpu.cache;
    h_call_stack = List.of_seq (Stack.to_seq cpu.Cpu.call_stack);
    h_ftregs =
      (if traced then
         Some
           ( Array.copy cpu.Cpu.ftregs.Flowtrace.id,
             Array.copy cpu.Cpu.ftregs.Flowtrace.depth )
       else None);
  }

let import_stats (src : Stats.t) (dst : Stats.t) =
  dst.Stats.instructions <- src.Stats.instructions;
  dst.Stats.cycles <- src.Stats.cycles;
  dst.Stats.loads <- src.Stats.loads;
  dst.Stats.stores <- src.Stats.stores;
  dst.Stats.branches <- src.Stats.branches;
  dst.Stats.predicated_off <- src.Stats.predicated_off;
  dst.Stats.syscalls <- src.Stats.syscalls;
  dst.Stats.io_cycles <- src.Stats.io_cycles;
  if
    Array.length dst.Stats.slots_by_prov
    <> Array.length src.Stats.slots_by_prov
  then invalid_arg "Snapshot.import_cpu: issue-slot provenance arity mismatch";
  Array.blit src.Stats.slots_by_prov 0 dst.Stats.slots_by_prov 0
    (Array.length src.Stats.slots_by_prov)

let import_cpu hart (cpu : Cpu.t) =
  if Array.length hart.h_values <> Array.length cpu.Cpu.values then
    invalid_arg "Snapshot.import_cpu: register file arity mismatch";
  if Array.length hart.h_nats <> Array.length cpu.Cpu.nats then
    invalid_arg "Snapshot.import_cpu: NaT file arity mismatch";
  if Array.length hart.h_preds <> Array.length cpu.Cpu.preds then
    invalid_arg "Snapshot.import_cpu: predicate file arity mismatch";
  Array.blit hart.h_values 0 cpu.Cpu.values 0 (Array.length hart.h_values);
  Array.blit hart.h_nats 0 cpu.Cpu.nats 0 (Array.length hart.h_nats);
  Array.blit hart.h_preds 0 cpu.Cpu.preds 0 (Array.length hart.h_preds);
  cpu.Cpu.unat <- hart.h_unat;
  cpu.Cpu.ip <- hart.h_ip;
  import_stats hart.h_stats cpu.Cpu.stats;
  Pipeline.import cpu.Cpu.pipe hart.h_pipe;
  Cache.import cpu.Cpu.cache hart.h_cache;
  Stack.clear cpu.Cpu.call_stack;
  List.iter
    (fun frame -> Stack.push frame cpu.Cpu.call_stack)
    (List.rev hart.h_call_stack);
  match hart.h_ftregs with
  | None -> ()
  | Some (ids, depths) ->
      let regs = cpu.Cpu.ftregs in
      if
        Array.length ids <> Array.length regs.Flowtrace.id
        || Array.length depths <> Array.length regs.Flowtrace.depth
      then invalid_arg "Snapshot.import_cpu: ftregs arity mismatch";
      Array.blit ids 0 regs.Flowtrace.id 0 (Array.length ids);
      Array.blit depths 0 regs.Flowtrace.depth 0 (Array.length depths)

(* the pages of a memory or provenance map, in ascending key order *)
let dump_pages fold_pages x =
  fold_pages x ~init:[] ~f:(fun acc key page -> (key, Bytes.to_string page) :: acc)
  |> List.rev

let dump_memory = dump_pages Memory.fold_pages
let dump_provenance = dump_pages Provenance.fold_pages

let load_memory mem pages =
  List.iter (fun (key, data) -> Memory.load_page mem key data) pages

let load_provenance pmap pages =
  List.iter (fun (key, data) -> Provenance.load_page pmap key data) pages

let envelope ?(meta = []) ?tracking ~image ~config ~fuel_left ~result ~world
    ~memory machine flow =
  let world = World.dump world in
  { meta; image; config; fuel_left; result; memory; machine; world; flow; tracking }

let capture ?meta ?tracking ~image ~config ~fuel_left ~result ~engine ~world () =
  let traced = config.c_trace <> None in
  let hart0 = Exec.hart0 engine in
  let machine =
    match Exec.machine engine with
    | Exec.Custom _ ->
        (* a process-table engine checkpoints through capture_procs *)
        invalid_arg "Snapshot.capture: custom engines have their own capture"
    | Exec.Cpu cpu -> M_cpu (export_cpu ~traced cpu)
    | Exec.Smp smp ->
        M_smp
          {
            sm_quantum = Smp.quantum smp;
            sm_harts =
              List.map
                (fun (id, state, cpu) -> (id, state, export_cpu ~traced cpu))
                (Smp.harts smp);
            sm_round = Smp.round smp;
            sm_finished = Smp.finished smp;
          }
  in
  let flow =
    if traced then
      let ft = hart0.Cpu.flowtrace in
      Some (Flowtrace.dump ft, dump_provenance (Flowtrace.provenance ft))
    else None
  in
  envelope ?meta ?tracking ~image ~config ~fuel_left ~result ~world
    ~memory:(dump_memory hart0.Cpu.mem) machine flow

(* Like [capture], for a process-table machine: every process carries
   its own address space and provenance shadow, so the pages live
   per-process and the top-level [memory] (and the flow entry's page
   list) stay empty. *)
let capture_procs ?meta ?tracking ~image ~config ~fuel_left ~result
    ~(procs : Process.t) ~world () =
  let traced = config.c_trace <> None in
  let pm_procs =
    List.map
      (fun (p : Process.part) ->
        {
          ps_pid = p.Process.p_pid;
          ps_parent = p.Process.p_parent;
          ps_image = p.Process.p_image;
          ps_state = p.Process.p_state;
          ps_hart = export_cpu ~traced p.Process.p_cpu;
          ps_mem = dump_memory p.Process.p_cpu.Cpu.mem;
          ps_prov = (if traced then dump_provenance p.Process.p_pmap else []);
          ps_ctx = World.dump_ctx p.Process.p_ctx;
        })
      (Process.parts procs)
  in
  let flow =
    if traced then
      Some (Flowtrace.dump (Process.pid1_cpu procs).Cpu.flowtrace, [])
    else None
  in
  envelope ?meta ?tracking ~image ~config ~fuel_left ~result ~world ~memory:[]
    (M_procs
       {
         pm_quantum = Process.quantum procs;
         pm_next_pid = Process.next_pid procs;
         pm_procs;
         pm_round = Process.round procs;
         pm_finished = Process.finished procs;
         pm_retired = Stats.copy (Process.retired procs);
       })
    flow

(* ---------- JSON serialisation ----------

   Every component is declared once, as a bidirectional codec from which
   both the encoder and the decoder are derived: a record lists each
   field's name, codec and getter in emission order; a variant names
   its cases, each writing its tag first and its payload fields inline. *)

module Codec = struct
  type json = Results.json
  type 'a t = { enc : 'a -> json; dec : json -> 'a }

  exception Bad of string

  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

  (* ---- primitives ---- *)

  let int =
    { enc = (fun n -> Results.Int n);
      dec = (function Results.Int n -> n | _ -> bad "expected an integer") }

  let bool =
    { enc = (fun b -> Results.Bool b);
      dec = (function Results.Bool b -> b | _ -> bad "expected a boolean") }

  let string =
    { enc = (fun s -> Results.String s);
      dec = (function Results.String s -> s | _ -> bad "expected a string") }

  let conv enc dec c =
    { enc = (fun v -> c.enc (enc v)); dec = (fun j -> dec (c.dec j)) }

  (* int64 values are serialised as decimal strings: [Results.Int] is a
     native OCaml int, which cannot represent the full register range. *)
  let int64 =
    { enc = (fun v -> Results.String (Int64.to_string v));
      dec =
        (function
        | Results.String s -> (
            match Int64.of_string_opt s with
            | Some v -> v
            | None -> bad "expected an int64 string, got %S" s)
        | Results.Int n -> Int64.of_int n
        | _ -> bad "expected an int64") }

  let bits =
    conv
      (fun a -> String.init (Array.length a) (fun i -> if a.(i) then '1' else '0'))
      (fun s ->
        Array.init (String.length s) (fun i ->
            match s.[i] with
            | '1' -> true
            | '0' -> false
            | c -> bad "invalid bit %C" c))
      string

  let hex_encode s =
    let digits = "0123456789abcdef" in
    let b = Bytes.create (2 * String.length s) in
    for i = 0 to String.length s - 1 do
      let c = Char.code (String.unsafe_get s i) in
      Bytes.unsafe_set b (2 * i) (String.unsafe_get digits (c lsr 4));
      Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get digits (c land 0xf))
    done;
    Bytes.unsafe_to_string b

  let hex_decode s =
    let n = String.length s in
    if n mod 2 <> 0 then bad "odd-length hex payload";
    let v c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> bad "invalid hex digit %C" c
    in
    String.init (n / 2) (fun i ->
        Char.chr ((v s.[2 * i] lsl 4) lor v s.[(2 * i) + 1]))

  (* binary payloads: memory pages, argv and pipe bytes, images *)
  let hex = conv hex_encode hex_decode string

  (* A marshalled value.  Hostile bytes come back as [Bad]: a short
     payload fails Marshal's header check with [Invalid_argument], a
     corrupt one with [Failure]. *)
  let marshalled what =
    conv
      (fun v -> Marshal.to_string v [])
      (fun s ->
        try Marshal.from_string s 0
        with Failure _ | Invalid_argument _ -> bad "corrupt embedded %s" what)
      hex

  (* An image as its content alone: the five fields in declaration
     order, which marshal to the bytes the whole record did before it
     carried derived code.  A decoded image builds its code afresh. *)
  let image what =
    conv
      (fun (i : Image.t) ->
        (i.Image.program, i.Image.data, i.Image.symbols, i.Image.mode,
         i.Image.func_sizes))
      (fun (program, data, symbols, mode, func_sizes) ->
        Image.make ~program ~data ~symbols ~mode ~func_sizes)
      (marshalled what)

  (* a closed set of names *)
  let enum what to_string of_string =
    conv to_string
      (fun s ->
        match of_string s with Some v -> v | None -> bad "unknown %s %S" what s)
      string

  let enum_cases what cases =
    enum what
      (fun v -> fst (List.find (fun (_, v') -> v' = v) cases))
      (fun s -> List.assoc_opt s cases)

  (* ---- containers ---- *)

  let list c =
    { enc = (fun l -> Results.List (List.map c.enc l));
      dec =
        (function Results.List l -> List.map c.dec l | _ -> bad "expected a list") }

  let array c = conv Array.to_list Array.of_list (list c)

  (* [None] is [null] *)
  let option c =
    { enc = (function None -> Results.Null | Some v -> c.enc v);
      dec = (function Results.Null -> None | j -> Some (c.dec j)) }

  (* a two-element list *)
  let pair what a b =
    { enc = (fun (x, y) -> Results.List [ a.enc x; b.enc y ]);
      dec =
        (function
        | Results.List [ x; y ] -> (a.dec x, b.dec y)
        | _ -> bad "malformed %s" what) }

  (* an object read as a string-keyed map, in emission order *)
  let assoc c =
    { enc = (fun kvs -> Results.Obj (List.map (fun (k, v) -> (k, c.enc v)) kvs));
      dec =
        (function
        | Results.Obj kvs -> List.map (fun (k, v) -> (k, c.dec v)) kvs
        | _ -> bad "expected an object") }

  (* ---- fields ---- *)

  type fields = (string * json) list

  (* a decoding error names the path of fields it occurred under *)
  let get ?default name c j =
    match Results.member name j with
    | Some v -> ( try c.dec v with Bad msg -> bad "%s: %s" name msg)
    | None -> (
        match default with Some d -> d | None -> bad "missing field %S" name)

  (* ---- records ----

     [record cons |+ field ... |+ field ... |> seal]: fields are written
     in declaration order and decoded into [cons]'s arguments in that
     same order.  [emit r rest] puts a field's entry in front of the
     entries of the fields after it. *)

  type ('r, 'a) field = { emit : 'r -> fields -> fields; take : json -> 'a }

  (* always written; [default] is what an absent field decodes to *)
  let field ?default name c getter =
    { emit = (fun r rest -> (name, c.enc (getter r)) :: rest);
      take = get ?default name c }

  (* The omission rule: a field holding its default is left out, and an
     absent field decodes to that default — so snapshots of sessions
     that do not use a feature keep the bytes they had before it
     existed. *)
  let opt name c ~default getter =
    let f = field ~default name c getter in
    { f with
      emit = (fun r rest -> if getter r = default then rest else f.emit r rest) }

  let record cons = { emit = (fun _ rest -> rest); take = (fun _ -> cons) }

  let ( |+ ) fs f =
    { emit = (fun r rest -> fs.emit r (f.emit r rest));
      take =
        (fun j ->
          let k = fs.take j in
          k (f.take j)) }

  let seal fs =
    { enc = (fun r -> Results.Obj (fs.emit r [])); dec = fs.take }

  (* objects of two or three named fields, read as tuples *)
  let obj2 (n1, c1) (n2, c2) =
    record (fun a b -> (a, b)) |+ field n1 c1 fst |+ field n2 c2 snd |> seal

  let obj3 (n1, c1) (n2, c2) (n3, c3) =
    record (fun a b c -> (a, b, c))
    |+ field n1 c1 (fun (a, _, _) -> a)
    |+ field n2 c2 (fun (_, b, _) -> b)
    |+ field n3 c3 (fun (_, _, c) -> c)
    |> seal

  (* ---- variants ----

     [case tag Args.[ (name, codec); ... ]] declares a case and its
     payload fields; [variant key readers writer] is an object whose
     [key] field, written first, holds the tag, followed inline by the
     payload.  [case => cons] reads a case's payload into a value, and
     the writer matches on the value and hands its payload to
     [put case Vals.[ ... ]]. *)

  type 'a codec = 'a t

  module Args = struct
    type _ t = [] : unit t | ( :: ) : (string * 'a codec) * 'p t -> ('a * 'p) t
  end

  module Vals = struct
    type _ t = [] : unit t | ( :: ) : 'a * 'p t -> ('a * 'p) t
  end

  type 'p case = { tag : string; args : 'p Args.t }

  let case tag args = { tag; args }

  let rec read : type p. p Args.t -> json -> p Vals.t =
   fun args j ->
    match args with
    | Args.[] -> Vals.[]
    | Args.((name, c) :: rest) ->
        let v = get name c j in
        Vals.(v :: read rest j)

  let rec write : type p. p Args.t -> p Vals.t -> fields =
   fun args vals ->
    match (args, vals) with
    | Args.[], Vals.[] -> []
    | Args.((name, c) :: rest), Vals.(v :: vs) -> (name, c.enc v) :: write rest vs

  let ( => ) c cons = (c.tag, fun j -> cons (read c.args j))
  let put c vals = (c.tag, write c.args vals)

  let variant key readers writer =
    { enc =
        (fun v ->
          let tag, fields = writer v in
          Results.Obj ((key, Results.String tag) :: fields));
      dec =
        (fun j ->
          let tag = get key string j in
          match List.assoc_opt tag readers with
          | Some read -> read j
          | None -> bad "unknown %s %S" key tag) }
end

open Codec

(* ---- faults, alerts, outcomes ---- *)

let fault : Fault.t Codec.t =
  let nat_use =
    enum_cases "NaT use"
      [ ("load_address", Fault.Load_address); ("store_address", Fault.Store_address);
        ("store_value", Fault.Store_value); ("branch_target", Fault.Branch_target);
        ("call_target", Fault.Call_target) ]
  in
  let nat = case "nat_consumption" Args.[ ("use", nat_use) ]
  and address = case "invalid_address" Args.[ ("addr", int64) ]
  and branch = case "invalid_branch" Args.[ ("target", int64) ]
  and div = case "div_by_zero" Args.[]
  and overflow = case "call_stack_overflow" Args.[]
  and underflow = case "call_stack_underflow" Args.[] in
  variant "fault"
    [
      (nat => fun Vals.[ u ] -> Fault.Nat_consumption u);
      (address => fun Vals.[ a ] -> Fault.Invalid_address a);
      (branch => fun Vals.[ a ] -> Fault.Invalid_branch a);
      (div => fun _ -> Fault.Div_by_zero);
      (overflow => fun _ -> Fault.Call_stack_overflow);
      (underflow => fun _ -> Fault.Call_stack_underflow);
    ]
    (function
      | Fault.Nat_consumption u -> put nat Vals.[ u ]
      | Fault.Invalid_address a -> put address Vals.[ a ]
      | Fault.Invalid_branch a -> put branch Vals.[ a ]
      | Fault.Div_by_zero -> put div Vals.[]
      | Fault.Call_stack_overflow -> put overflow Vals.[]
      | Fault.Call_stack_underflow -> put underflow Vals.[])

let alert =
  record (fun policy message signature chain ->
      { Alert.policy; message; signature; chain })
  |+ field "policy" string (fun a -> a.Alert.policy)
  |+ field "message" string (fun a -> a.Alert.message)
  |+ field "signature" (option string) (fun a -> a.Alert.signature)
  |+ field "chain" (list string) (fun a -> a.Alert.chain)
  |> seal

let outcome : Report.outcome Codec.t =
  let exited = case "exited" Args.[ ("code", int64) ]
  and alert = case "alert" Args.[ ("alert", alert) ]
  and fault = case "fault" Args.[ ("fault", fault) ]
  and timeout = case "timeout" Args.[] in
  variant "kind"
    [
      (exited => fun Vals.[ c ] -> Report.Exited c);
      (alert => fun Vals.[ a ] -> Report.Alert a);
      (fault => fun Vals.[ f ] -> Report.Fault f);
      (timeout => fun _ -> Report.Timeout);
    ]
    (function
      | Report.Exited c -> put exited Vals.[ c ]
      | Report.Alert a -> put alert Vals.[ a ]
      | Report.Fault f -> put fault Vals.[ f ]
      | Report.Timeout -> put timeout Vals.[])

(* an exit value, or the fault and the ip it struck at *)
let value = Args.[ ("value", int64) ]
let struck = Args.[ ("fault", fault); ("ip", int) ]

let cpu_outcome : Cpu.outcome Codec.t =
  let exited = case "exited" value
  and faulted = case "faulted" struck
  and out_of_fuel = case "out_of_fuel" Args.[] in
  variant "kind"
    [
      (exited => fun Vals.[ v ] -> Cpu.Exited v);
      (faulted => fun Vals.[ f; ip ] -> Cpu.Faulted (f, ip));
      (out_of_fuel => fun _ -> Cpu.Out_of_fuel);
    ]
    (function
      | Cpu.Exited v -> put exited Vals.[ v ]
      | Cpu.Faulted (f, ip) -> put faulted Vals.[ f; ip ]
      | Cpu.Out_of_fuel -> put out_of_fuel Vals.[])

let hart_state : Smp.state Codec.t =
  let running = case "running" Args.[]
  and done_ = case "done" value
  and crashed = case "crashed" struck in
  variant "state"
    [
      (running => fun _ -> Smp.Running);
      (done_ => fun Vals.[ v ] -> Smp.Done v);
      (crashed => fun Vals.[ f; ip ] -> Smp.Crashed (f, ip));
    ]
    (function
      | Smp.Running -> put running Vals.[]
      | Smp.Done v -> put done_ Vals.[ v ]
      | Smp.Crashed (f, ip) -> put crashed Vals.[ f; ip ])

let proc_state : Process.state Codec.t =
  let run = case "run" Args.[]
  and zombie = case "zombie" value
  and crashed = case "crashed" struck in
  variant "state"
    [
      (run => fun _ -> Process.Run);
      (zombie => fun Vals.[ v ] -> Process.Zombie v);
      (crashed => fun Vals.[ f; ip ] -> Process.Crashed (f, ip));
    ]
    (function
      | Process.Run -> put run Vals.[]
      | Process.Zombie v -> put zombie Vals.[ v ]
      | Process.Crashed (f, ip) -> put crashed Vals.[ f; ip ])

(* ---- configuration ---- *)

let policy =
  let action =
    enum_cases "policy action"
      [ ("halt", Policy.Halt_program); ("log", Policy.Log_only) ]
  in
  record (fun taint_network taint_files h1 h2 h3 h4 h5 low_level action ->
      { Policy.taint_network; taint_files; h1; h2; h3; h4; h5; low_level; action })
  |+ field "taint_network" bool (fun p -> p.Policy.taint_network)
  |+ field "taint_files" bool (fun p -> p.Policy.taint_files)
  |+ field "h1" bool (fun p -> p.Policy.h1)
  |+ field "h2" (option string) (fun p -> p.Policy.h2)
  |+ field "h3" bool (fun p -> p.Policy.h3)
  |+ field "h4" bool (fun p -> p.Policy.h4)
  |+ field "h5" bool (fun p -> p.Policy.h5)
  |+ field "low_level" bool (fun p -> p.Policy.low_level)
  |+ field "action" action (fun p -> p.Policy.action)
  |> seal

let io_cost =
  record (fun per_call per_byte sendfile_per_byte ->
      { World.per_call; per_byte; sendfile_per_byte })
  |+ field "per_call" int (fun c -> c.World.per_call)
  |+ field "per_byte" int (fun c -> c.World.per_byte)
  |+ field "sendfile_per_byte" int (fun c -> c.World.sendfile_per_byte)
  |> seal

let threading =
  let single = case "single" Args.[]
  and threads = case "threads" Args.[ ("quantum", option int) ]
  and procs =
    case "procs" Args.[ ("quantum", option int); ("comm", option string) ]
  in
  variant "kind"
    [
      (single => fun _ -> T_single);
      (threads => fun Vals.[ q ] -> T_threads q);
      (procs => fun Vals.[ q; c ] -> T_procs { tp_quantum = q; tp_comm = c });
    ]
    (function
      | T_single -> put single Vals.[]
      | T_threads q -> put threads Vals.[ q ]
      | T_procs { tp_quantum = q; tp_comm = c } -> put procs Vals.[ q; c ])

let trace_options =
  let kind = enum "event kind" Flowtrace.kind_to_string Flowtrace.kind_of_string in
  record (fun capacity only -> { Flowtrace.capacity; only })
  |+ field "capacity" int (fun o -> o.Flowtrace.capacity)
  |+ field "only" (option (list kind)) (fun o -> o.Flowtrace.only)
  |> seal

let config =
  let backend =
    enum "backend" Backend.to_string (fun s ->
        Result.to_option (Backend.of_string s))
  and aux_image = obj2 ("name", string) ("image", image "aux image") in
  record
    (fun c_policy c_io_cost c_fuel c_threading c_trace c_superblocks c_hwtrace
         c_backend c_images c_coproc_capacity c_coproc_drain_rate
         c_coproc_stall_penalty ->
      { c_policy; c_io_cost; c_fuel; c_threading; c_trace; c_hwtrace;
        c_superblocks; c_backend; c_images; c_coproc_capacity;
        c_coproc_drain_rate; c_coproc_stall_penalty })
  |+ field "policy" policy (fun c -> c.c_policy)
  |+ field "io_cost" io_cost (fun c -> c.c_io_cost)
  |+ field "fuel" int (fun c -> c.c_fuel)
  |+ field "threading" threading (fun c -> c.c_threading)
  |+ field "trace" (option trace_options) (fun c -> c.c_trace)
  |+ field "superblocks" bool (fun c -> c.c_superblocks)
  |+ opt "hwtrace" bool ~default:false (fun c -> c.c_hwtrace)
  |+ opt "backend" backend ~default:Backend.Nat (fun c -> c.c_backend)
  |+ opt "images" (list aux_image) ~default:[] (fun c -> c.c_images)
  |+ opt "coproc_capacity" (option int) ~default:None (fun c ->
         c.c_coproc_capacity)
  |+ opt "coproc_drain_rate" (option int) ~default:None (fun c ->
         c.c_coproc_drain_rate)
  |+ opt "coproc_stall_penalty" (option int) ~default:None (fun c ->
         c.c_coproc_stall_penalty)
  |> seal

(* ---- pages and world ---- *)

let pages = list (obj2 ("key", int64) ("data", hex))

let fd_entry : World.fd_entry Codec.t =
  let stream = case "stream" Args.[ ("oid", int) ]
  and pipe_r = case "pipe_r" Args.[ ("oid", int) ]
  and pipe_w = case "pipe_w" Args.[ ("oid", int) ] in
  variant "kind"
    [
      (stream => fun Vals.[ oid ] -> World.Fstream oid);
      (pipe_r => fun Vals.[ oid ] -> World.Fpipe_r oid);
      (pipe_w => fun Vals.[ oid ] -> World.Fpipe_w oid);
    ]
    (function
      | World.Fstream oid -> put stream Vals.[ oid ]
      | World.Fpipe_r oid -> put pipe_r Vals.[ oid ]
      | World.Fpipe_w oid -> put pipe_w Vals.[ oid ])

let arg_value =
  record (fun a_bytes a_taints a_provs -> { World.a_bytes; a_taints; a_provs })
  |+ field "bytes" hex (fun a -> a.World.a_bytes)
  |+ field "taints" bits (fun a -> a.World.a_taints)
  |+ field "provs" (array int) (fun a -> a.World.a_provs)
  |> seal

let pipe_seg =
  record (fun sg_data sg_taints sg_provs sg_pid sg_comm sg_off ->
      { Ospipe.sg_data; sg_taints; sg_provs; sg_pid; sg_comm; sg_off })
  |+ field "data" hex (fun s -> s.Ospipe.sg_data)
  |+ field "taints" bits (fun s -> s.Ospipe.sg_taints)
  |+ field "provs" (array int) (fun s -> s.Ospipe.sg_provs)
  |+ field "pid" int (fun s -> s.Ospipe.sg_pid)
  |+ field "comm" string (fun s -> s.Ospipe.sg_comm)
  |+ field "off" int (fun s -> s.Ospipe.sg_off)
  |> seal

let obj_state : World.obj_state Codec.t =
  let stream =
    case "stream"
      Args.[ ("content", string); ("pos", int); ("tainted", bool);
             ("path", option string) ]
  and pipe =
    case "pipe" Args.[ ("segs", list pipe_seg); ("readers", int); ("writers", int) ]
  in
  variant "kind"
    [
      (stream => fun Vals.[ fd_content; fd_pos; fd_tainted; fd_path ] ->
       World.Os_stream { World.fd_content; fd_pos; fd_tainted; fd_path });
      (pipe => fun Vals.[ st_segs; st_readers; st_writers ] ->
       World.Os_pipe { Ospipe.st_segs; st_readers; st_writers });
    ]
    (function
      | World.Os_stream { World.fd_content; fd_pos; fd_tainted; fd_path } ->
          put stream Vals.[ fd_content; fd_pos; fd_tainted; fd_path ]
      | World.Os_pipe { Ospipe.st_segs; st_readers; st_writers } ->
          put pipe Vals.[ st_segs; st_readers; st_writers ])

let ctx =
  let fd = obj2 ("fd", int) ("entry", fd_entry) in
  record (fun cx_pid cx_comm cx_fds cx_next_fd cx_brk cx_crumbs cx_argv ->
      { World.cx_pid; cx_comm; cx_fds; cx_next_fd; cx_brk; cx_crumbs; cx_argv })
  |+ field "pid" int (fun c -> c.World.cx_pid)
  |+ field "comm" string (fun c -> c.World.cx_comm)
  |+ field "fds" (list fd) (fun c -> c.World.cx_fds)
  |+ field "next_fd" int (fun c -> c.World.cx_next_fd)
  |+ field "brk" int64 (fun c -> c.World.cx_brk)
  |+ field "crumbs" (list string) (fun c -> c.World.cx_crumbs)
  |+ field "argv" (list arg_value) (fun c -> c.World.cx_argv)
  |> seal

let world =
  let file = obj3 ("path", string) ("content", string) ("tainted", bool)
  and obj = obj3 ("oid", int) ("refs", int) ("state", obj_state) in
  record
    (fun d_files d_objs d_next_oid d_ctx d_pending d_output d_html d_sql
         d_commands d_alerts ->
      { World.d_files; d_objs; d_next_oid; d_ctx; d_pending; d_output; d_html;
        d_sql; d_commands; d_alerts })
  |+ field "files" (list file) (fun d -> d.World.d_files)
  |+ field "objs" (list obj) (fun d -> d.World.d_objs)
  |+ field "next_oid" int (fun d -> d.World.d_next_oid)
  |+ field "ctx" ctx (fun d -> d.World.d_ctx)
  |+ field "pending" (list string) (fun d -> d.World.d_pending)
  |+ field "output" string (fun d -> d.World.d_output)
  |+ field "html" string (fun d -> d.World.d_html)
  |+ field "sql" (list string) (fun d -> d.World.d_sql)
  |+ field "commands" (list string) (fun d -> d.World.d_commands)
  |+ field "alerts" (list alert) (fun d -> d.World.d_alerts)
  |> seal

(* ---- machine state ---- *)

let stats =
  let arity = Array.length (Stats.create ()).Stats.slots_by_prov in
  record
    (fun instructions cycles loads stores branches predicated_off syscalls
         io_cycles slots_by_prov ->
      if Array.length slots_by_prov <> arity then
        bad "issue-slot provenance arity mismatch";
      { Stats.instructions; cycles; loads; stores; branches; predicated_off;
        syscalls; io_cycles; slots_by_prov })
  |+ field "instructions" int (fun s -> s.Stats.instructions)
  |+ field "cycles" int (fun s -> s.Stats.cycles)
  |+ field "loads" int (fun s -> s.Stats.loads)
  |+ field "stores" int (fun s -> s.Stats.stores)
  |+ field "branches" int (fun s -> s.Stats.branches)
  |+ field "predicated_off" int (fun s -> s.Stats.predicated_off)
  |+ field "syscalls" int (fun s -> s.Stats.syscalls)
  |+ field "io_cycles" int (fun s -> s.Stats.io_cycles)
  |+ field "slots_by_prov" (array int) (fun s -> s.Stats.slots_by_prov)
  |> seal

let pipe =
  record (fun s_cycle s_slots_used s_mem_used s_reg_ready s_pred_ready ->
      { Pipeline.s_cycle; s_slots_used; s_mem_used; s_reg_ready; s_pred_ready })
  |+ field "cycle" int (fun p -> p.Pipeline.s_cycle)
  |+ field "slots_used" int (fun p -> p.Pipeline.s_slots_used)
  |+ field "mem_used" int (fun p -> p.Pipeline.s_mem_used)
  |+ field "reg_ready" (array int) (fun p -> p.Pipeline.s_reg_ready)
  |+ field "pred_ready" (array int) (fun p -> p.Pipeline.s_pred_ready)
  |> seal

let cache =
  record (fun s_lines s_hits s_misses s_line_shift ->
      { Cache.s_lines; s_hits; s_misses; s_line_shift })
  |+ field "lines" (array int64) (fun c -> c.Cache.s_lines)
  |+ field "hits" int (fun c -> c.Cache.s_hits)
  |+ field "misses" int (fun c -> c.Cache.s_misses)
  (* absent in images written before the geometry check: those were all
     taken under the default 64-byte lines *)
  |+ field "line_shift" int ~default:6 (fun c -> c.Cache.s_line_shift)
  |> seal

let hart =
  let frame = pair "call-stack frame" int int64
  and ftregs = obj2 ("id", array int) ("depth", array int) in
  record
    (fun h_values h_nats h_preds h_unat h_ip h_stats h_pipe h_cache h_call_stack
         h_ftregs ->
      { h_values; h_nats; h_preds; h_unat; h_ip; h_stats; h_pipe; h_cache;
        h_call_stack; h_ftregs })
  |+ field "values" (array int64) (fun h -> h.h_values)
  |+ field "nats" bits (fun h -> h.h_nats)
  |+ field "preds" bits (fun h -> h.h_preds)
  |+ field "unat" int64 (fun h -> h.h_unat)
  |+ field "ip" int (fun h -> h.h_ip)
  |+ field "stats" stats (fun h -> h.h_stats)
  |+ field "pipe" pipe (fun h -> h.h_pipe)
  |+ field "cache" cache (fun h -> h.h_cache)
  |+ field "call_stack" (list frame) (fun h -> h.h_call_stack)
  |+ field "ftregs" (option ftregs) (fun h -> h.h_ftregs)
  |> seal

let proc_snap =
  record (fun ps_pid ps_parent ps_image ps_state ps_hart ps_mem ps_prov ps_ctx ->
      { ps_pid; ps_parent; ps_image; ps_state; ps_hart; ps_mem; ps_prov; ps_ctx })
  |+ field "pid" int (fun p -> p.ps_pid)
  |+ field "parent" int (fun p -> p.ps_parent)
  |+ field "image" (option string) (fun p -> p.ps_image)
  |+ field "state" proc_state (fun p -> p.ps_state)
  |+ field "hart" hart (fun p -> p.ps_hart)
  |+ field "memory" pages (fun p -> p.ps_mem)
  |+ field "provenance_pages" pages (fun p -> p.ps_prov)
  |+ field "ctx" ctx (fun p -> p.ps_ctx)
  |> seal

let machine =
  let smp_hart = obj3 ("id", int) ("state", hart_state) ("hart", hart)
  and round = list (pair "round entry" int int) in
  let cpu = case "cpu" Args.[ ("hart", hart) ]
  and finished = option cpu_outcome in
  let smp =
    case "smp"
      Args.[ ("quantum", int); ("harts", list smp_hart); ("round", round);
             ("finished", finished) ]
  and procs =
    case "procs"
      Args.[ ("quantum", int); ("next_pid", int); ("procs", list proc_snap);
             ("round", round); ("finished", finished); ("retired", stats) ]
  in
  variant "shape"
    [
      (cpu => fun Vals.[ h ] -> M_cpu h);
      (smp => fun Vals.[ sm_quantum; sm_harts; sm_round; sm_finished ] ->
       M_smp { sm_quantum; sm_harts; sm_round; sm_finished });
      (procs => fun Vals.[ q; n; ps; r; f; s ] ->
       M_procs
         { pm_quantum = q; pm_next_pid = n; pm_procs = ps; pm_round = r;
           pm_finished = f; pm_retired = s });
    ]
    (function
      | M_cpu h -> put cpu Vals.[ h ]
      | M_smp { sm_quantum; sm_harts; sm_round; sm_finished } ->
          put smp Vals.[ sm_quantum; sm_harts; sm_round; sm_finished ]
      | M_procs
          { pm_quantum = q; pm_next_pid = n; pm_procs = ps; pm_round = r;
            pm_finished = f; pm_retired = s } ->
          put procs Vals.[ q; n; ps; r; f; s ])

(* ---- flow ---- *)

let source =
  record (fun sid channel origin offset len ->
      { Flowtrace.sid; channel; origin; offset; len })
  |+ field "sid" int (fun s -> s.Flowtrace.sid)
  |+ field "channel" string (fun s -> s.Flowtrace.channel)
  |+ field "origin" string (fun s -> s.Flowtrace.origin)
  |+ field "offset" int (fun s -> s.Flowtrace.offset)
  |+ field "len" int (fun s -> s.Flowtrace.len)
  |> seal

let detail : Flowtrace.detail Codec.t =
  let open Flowtrace in
  let birth = case "birth" Args.[ ("src", source); ("addr", int64) ]
  and load = case "load" Args.[ ("reg", int); ("addr", int64); ("id", int) ]
  and prop =
    case "prop" Args.[ ("dst", int); ("src", int); ("id", int); ("depth", int) ]
  and store =
    case "store" Args.[ ("reg", int); ("addr", int64); ("len", int); ("id", int) ]
  and purge = case "purge" Args.[ ("reg", int) ]
  and check = case "check" Args.[ ("reg", int); ("tainted", bool) ]
  and sink = case "sink" Args.[ ("policy", string); ("detail", string) ] in
  variant "t"
    [
      (birth => fun Vals.[ src; addr ] -> Ev_birth { src; addr });
      (load => fun Vals.[ reg; addr; id ] -> Ev_load { reg; addr; id });
      (prop => fun Vals.[ dst; src; id; depth ] -> Ev_prop { dst; src; id; depth });
      (store => fun Vals.[ reg; addr; len; id ] -> Ev_store { reg; addr; len; id });
      (purge => fun Vals.[ reg ] -> Ev_purge { reg });
      (check => fun Vals.[ reg; tainted ] -> Ev_check { reg; tainted });
      (sink => fun Vals.[ policy; detail ] -> Ev_sink { policy; detail });
    ]
    (function
      | Ev_birth { src; addr } -> put birth Vals.[ src; addr ]
      | Ev_load { reg; addr; id } -> put load Vals.[ reg; addr; id ]
      | Ev_prop { dst; src; id; depth } -> put prop Vals.[ dst; src; id; depth ]
      | Ev_store { reg; addr; len; id } -> put store Vals.[ reg; addr; len; id ]
      | Ev_purge { reg } -> put purge Vals.[ reg ]
      | Ev_check { reg; tainted } -> put check Vals.[ reg; tainted ]
      | Ev_sink { policy; detail } -> put sink Vals.[ policy; detail ])

let event =
  record (fun seq ip ev -> { Flowtrace.seq; ip; ev })
  |+ field "seq" int (fun e -> e.Flowtrace.seq)
  |+ field "ip" int (fun e -> e.Flowtrace.ip)
  |+ field "ev" detail (fun e -> e.Flowtrace.ev)
  |> seal

(* the flow dump and the provenance shadow pages share one object *)
let flow =
  let spec = pair "spec-source entry" int int in
  record
    (fun d_enabled d_capacity d_keep d_count d_window d_sources d_next_id d_spec
         d_births d_propagations d_purges d_checks d_sink_hits d_max_depth pages ->
      ( { Flowtrace.d_enabled; d_capacity; d_keep; d_count; d_window; d_sources;
          d_next_id; d_spec; d_births; d_propagations; d_purges; d_checks;
          d_sink_hits; d_max_depth },
        pages ))
  |+ field "enabled" bool (fun (d, _) -> d.Flowtrace.d_enabled)
  |+ field "capacity" int (fun (d, _) -> d.Flowtrace.d_capacity)
  |+ field "keep" bits (fun (d, _) -> d.Flowtrace.d_keep)
  |+ field "count" int (fun (d, _) -> d.Flowtrace.d_count)
  |+ field "window" (list event) (fun (d, _) -> d.Flowtrace.d_window)
  |+ field "sources" (list source) (fun (d, _) -> d.Flowtrace.d_sources)
  |+ field "next_id" int (fun (d, _) -> d.Flowtrace.d_next_id)
  |+ field "spec" (list spec) (fun (d, _) -> d.Flowtrace.d_spec)
  |+ field "births" int (fun (d, _) -> d.Flowtrace.d_births)
  |+ field "propagations" int (fun (d, _) -> d.Flowtrace.d_propagations)
  |+ field "purges" int (fun (d, _) -> d.Flowtrace.d_purges)
  |+ field "checks" int (fun (d, _) -> d.Flowtrace.d_checks)
  |+ field "sink_hits" int (fun (d, _) -> d.Flowtrace.d_sink_hits)
  |+ field "max_depth" int (fun (d, _) -> d.Flowtrace.d_max_depth)
  |+ field "provenance_pages" pages snd
  |> seal

(* ---- tag-coprocessor state ---- *)

(* Register indices, access lengths and addresses are range-checked on
   the way in: a queued record is applied only when it drains, long
   after the restore, and must not index past the tag file then. *)
let checked what ok c =
  conv Fun.id (fun v -> if ok v then v else bad "%s out of range" what) c

let reg = checked "register" (fun r -> r >= 0 && r < Reg.count) int
let access_len = checked "access length" (fun n -> n >= 1 && n <= 8) int
let access_addr = checked "access address" Shift_mem.Addr.is_valid int64

let tracking_record : Tracking.record Codec.t =
  let open Tracking in
  let what = enum "check kind" check_to_string check_of_string in
  let set = case "set" Args.[ ("dst", reg); ("tainted", bool) ]
  and move = case "move" Args.[ ("dst", reg); ("src", reg) ]
  and union = case "union" Args.[ ("dst", reg); ("s1", reg); ("s2", reg) ]
  and load =
    case "load" Args.[ ("dst", reg); ("addr", access_addr); ("len", access_len) ]
  and store =
    case "store" Args.[ ("addr", access_addr); ("len", access_len); ("src", reg) ]
  and check = case "check" Args.[ ("what", what); ("reg", reg) ] in
  variant "op"
    [
      (set => fun Vals.[ dst; tainted ] -> Set { dst; tainted });
      (move => fun Vals.[ dst; src ] -> Move { dst; src });
      (union => fun Vals.[ dst; s1; s2 ] -> Union { dst; s1; s2 });
      (load => fun Vals.[ dst; addr; len ] -> Load { dst; addr; len });
      (store => fun Vals.[ addr; len; src ] -> Store { addr; len; src });
      (check => fun Vals.[ what; reg ] -> Check { what; reg });
    ]
    (function
      | Set { dst; tainted } -> put set Vals.[ dst; tainted ]
      | Move { dst; src } -> put move Vals.[ dst; src ]
      | Union { dst; s1; s2 } -> put union Vals.[ dst; s1; s2 ]
      | Load { dst; addr; len } -> put load Vals.[ dst; addr; len ]
      | Store { addr; len; src } -> put store Vals.[ addr; len; src ]
      | Check { what; reg } -> put check Vals.[ what; reg ])

let tracking =
  let queued = obj2 ("record", tracking_record) ("at", int) in
  record (fun d_regs d_queue d_retired d_pending_stall ->
      { Tracking.d_regs; d_queue; d_retired; d_pending_stall })
  |+ field "regs"
       (checked "tag file length" (fun a -> Array.length a = Reg.count) bits)
       (fun d -> d.Tracking.d_regs)
  |+ field "queue" (list queued) (fun d -> d.Tracking.d_queue)
  |+ field "retired" int (fun d -> d.Tracking.d_retired)
  |+ field "pending_stall" int (fun d -> d.Tracking.d_pending_stall)
  |> seal

(* ---- the envelope ---- *)

(* the coprocessor state must belong to a coproc session and fit the
   queue its knobs describe *)
let check_tracking config (d : Tracking.dump) =
  if config.c_backend <> Backend.Coproc then
    bad "tracking: tag-queue state under the %s backend"
      (Backend.to_string config.c_backend);
  let capacity =
    max 1 (Option.value config.c_coproc_capacity ~default:Tracking.default_capacity)
  in
  let queued = List.length d.Tracking.d_queue in
  if queued > capacity then
    bad "tracking: %d queued records exceed the queue capacity %d" queued
      capacity

(* the version and kind fields carry no data: they are written as
   constants, and decoding rejects any other value *)
let snapshot =
  let stamp =
    conv
      (fun () -> version)
      (fun v ->
        if v <> version then
          bad "unsupported snapshot version %d (expected %d)" v version)
      int
  and kind = enum_cases "snapshot kind" [ ("shift-snapshot", ()) ] in
  record
    (fun () () meta config fuel_left result image memory machine world flow
         tracking ->
      Option.iter (check_tracking config) tracking;
      { meta; image; config; fuel_left; result; memory; machine; world; flow;
        tracking })
  |+ field "snapshot_version" stamp ignore
  |+ field "kind" kind ignore
  |+ field "meta" (assoc string) (fun t -> t.meta)
  |+ field "config" config (fun t -> t.config)
  |+ field "fuel_left" int (fun t -> t.fuel_left)
  |+ field "result" (option outcome) (fun t -> t.result)
  |+ field "image" (image "image") (fun t -> t.image)
  |+ field "memory" pages (fun t -> t.memory)
  |+ field "machine" machine (fun t -> t.machine)
  |+ field "world" world (fun t -> t.world)
  |+ field "flow" (option flow) (fun t -> t.flow)
  |+ opt "tracking" (option tracking) ~default:None (fun t -> t.tracking)
  |> seal

let to_json t = snapshot.enc t

(* a file that is not a snapshot at all is told so before anything else *)
let of_json j =
  match Results.member "kind" j with
  | Some (Results.String "shift-snapshot") -> (
      try Ok (snapshot.dec j) with Bad msg -> Error msg)
  | _ -> Error "not a shift snapshot"

let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let b = Buffer.create 1024 in
      Results.to_buffer b (to_json t);
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b);
  Sys.rename tmp path

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Results.of_string text with
      | Error msg -> Error ("invalid JSON: " ^ msg)
      | Ok j -> of_json j)
