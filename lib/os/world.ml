open Shift_isa
module Cpu = Shift_machine.Cpu
module Flowtrace = Shift_machine.Flowtrace
module Taint = Shift_mem.Taint
module Provenance = Shift_mem.Provenance
module Policy = Shift_policy.Policy
module Alert = Shift_policy.Alert
module Tracking = Shift_tracking.Tracking

type io_cost = { per_call : int; per_byte : int; sendfile_per_byte : int }

let default_io_cost = { per_call = 600; per_byte = 2; sendfile_per_byte = 1 }

type stream = {
  content : string;
  mutable pos : int;
  tainted : bool;
  path : string option;  (* None for sockets *)
}

(* Open files live in a kernel-wide table so descriptors inherited
   across fork (or duplicated with dup) share one stream position, as on
   Unix.  Entries are refcounted: the last close drops the object. *)
type obj = { mutable refs : int; kind : obj_kind }
and obj_kind = Ostream of stream | Opipe of Pipe.t

type fd_entry = Fstream of int | Fpipe_r of int | Fpipe_w of int

(* Bytes of an exec argument, sampled from the caller's address space
   before the image is replaced: the only data that survives exec. *)
type arg_value = { a_bytes : string; a_taints : bool array; a_provs : int array }

(* The per-process kernel context: descriptor table, heap break, and the
   cross-process provenance breadcrumbs (pipe and exec-argv hops tainted
   data took to reach this address space).  Single-process sessions run
   entirely in the base context. *)
type ctx = {
  pid : int;
  mutable comm : string;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable brk : int64;
  mutable crumbs : string list;  (* newest-first *)
  mutable argv : arg_value list;
}

type wait_result = Wait_ready of int64 | Wait_block | Wait_none

type t = {
  pol : Policy.t;
  gran : Shift_mem.Granularity.t;
  io : io_cost;
  files : (string, string * bool) Hashtbl.t;  (* path -> content, tainted *)
  objs : (int, obj) Hashtbl.t;  (* open-file table, keyed by object id *)
  mutable next_oid : int;
  pending : string Queue.t;  (* queued network connections, FIFO *)
  out_buf : Buffer.t;
  html_buf : Buffer.t;
  mutable sql : string list;
  mutable commands : string list;
  mutable alert_log : Alert.t list;
  (* thread support, wired up by the SMP runner; [None] = single
     threaded (spawn fails, join returns immediately) *)
  mutable spawn_hook : (Cpu.t -> entry:int64 -> arg:int64 -> int) option;
  mutable join_hook : (int -> int64 option) option;
  (* process support, wired up by Procs; [None] = the fork/exec/wait
     syscalls fail with -1 *)
  mutable fork_hook : (Cpu.t -> int64) option;
  mutable exec_hook : (Cpu.t -> prog:string -> args:arg_value list -> unit) option;
  mutable wait_hook : (int -> wait_result) option;
  mutable multiproc : bool;
  base : ctx;
  mutable cur : ctx;
  tracking : Tracking.t;
}

let make_ctx ~pid ~comm =
  {
    pid;
    comm;
    fds = Hashtbl.create 16;
    next_fd = 3;
    brk = 0L; (* set on first sbrk from the constant below *)
    crumbs = [];
    argv = [];
  }

let create ?(policy = Policy.default) ?(gran = Shift_mem.Granularity.Word)
    ?(io_cost = default_io_cost) ?(tracking = Tracking.default) () =
  let base = make_ctx ~pid:1 ~comm:"main" in
  {
    pol = policy;
    gran;
    io = io_cost;
    files = Hashtbl.create 16;
    objs = Hashtbl.create 16;
    next_oid = 1;
    pending = Queue.create ();
    out_buf = Buffer.create 256;
    html_buf = Buffer.create 256;
    sql = [];
    commands = [];
    alert_log = [];
    spawn_hook = None;
    join_hook = None;
    fork_hook = None;
    exec_hook = None;
    wait_hook = None;
    multiproc = false;
    base;
    cur = base;
    tracking;
  }

(* matches Layout.heap_base without depending on the compiler library *)
let heap_base = Shift_mem.Addr.in_region 1 0x2000_0000L

let policy t = t.pol

(* the OS resolves every path against a root working directory, so
   excess ".." components clamp at "/" as on a real system *)
let resolve path =
  let n = Policy.normalize_path ("/" ^ path) in
  if n = "/" then "/" else String.sub n 1 (String.length n - 1)

let add_file t ?tainted path content =
  let tainted = Option.value tainted ~default:t.pol.Policy.taint_files in
  Hashtbl.replace t.files (resolve path) (content, tainted)

(* O(1) enqueue: request setup used to rebuild the whole list per
   request, making N-request setups O(N^2) *)
let queue_request t req = Queue.add req t.pending

(* ---------- the object/descriptor layer ---------- *)

let alloc_obj t kind =
  let oid = t.next_oid in
  t.next_oid <- t.next_oid + 1;
  Hashtbl.replace t.objs oid { refs = 0; kind };
  oid

let obj_of t oid = Hashtbl.find_opt t.objs oid

let pipe_of t oid =
  match obj_of t oid with Some { kind = Opipe p; _ } -> Some p | _ -> None

let retain_entry t entry =
  let oid = match entry with Fstream o | Fpipe_r o | Fpipe_w o -> o in
  match obj_of t oid with
  | None -> ()
  | Some o ->
      o.refs <- o.refs + 1;
      (match (entry, o.kind) with
      | Fpipe_r _, Opipe p -> p.Pipe.readers <- p.Pipe.readers + 1
      | Fpipe_w _, Opipe p -> p.Pipe.writers <- p.Pipe.writers + 1
      | _ -> ())

let release_entry t entry =
  let oid = match entry with Fstream o | Fpipe_r o | Fpipe_w o -> o in
  match obj_of t oid with
  | None -> ()
  | Some o ->
      o.refs <- o.refs - 1;
      (match (entry, o.kind) with
      | Fpipe_r _, Opipe p -> p.Pipe.readers <- p.Pipe.readers - 1
      | Fpipe_w _, Opipe p -> p.Pipe.writers <- p.Pipe.writers - 1
      | _ -> ());
      if o.refs <= 0 then Hashtbl.remove t.objs oid

let install_fd t ctx fd entry =
  (match Hashtbl.find_opt ctx.fds fd with
  | Some old -> release_entry t old
  | None -> ());
  Hashtbl.replace ctx.fds fd entry;
  retain_entry t entry

let alloc_fd t entry =
  let ctx = t.cur in
  let fd = ctx.next_fd in
  ctx.next_fd <- ctx.next_fd + 1;
  install_fd t ctx fd entry;
  fd

let alloc_stream_fd t stream = alloc_fd t (Fstream (alloc_obj t (Ostream stream)))

let entry_of t fd = Hashtbl.find_opt t.cur.fds fd

let stream_of t fd =
  match entry_of t fd with
  | Some (Fstream oid) -> (
      match obj_of t oid with
      | Some { kind = Ostream s; _ } -> Some s
      | _ -> None)
  | _ -> None

(* keyboard input, §3.3.1 source (3); fd 0, tainted unless said
   otherwise *)
let set_stdin t ?(tainted = true) content =
  install_fd t t.base 0
    (Fstream (alloc_obj t (Ostream { content; pos = 0; tainted; path = None })))

let output t = Buffer.contents t.out_buf
let html_output t = Buffer.contents t.html_buf
let sql_queries t = List.rev t.sql
let system_commands t = List.rev t.commands
let alerts t = List.rev t.alert_log

let raise_alert t alert =
  (* in a multi-process world every alert names the process it fired
     in; single-process output is untouched *)
  let alert =
    if t.multiproc then
      {
        alert with
        Alert.message =
          Printf.sprintf "[pid %d, %s] %s" t.cur.pid t.cur.comm
            alert.Alert.message;
      }
    else alert
  in
  match t.pol.Policy.action with
  | Policy.Halt_program -> raise (Alert.Violation alert)
  | Policy.Log_only -> t.alert_log <- alert :: t.alert_log

let arg cpu i = Cpu.get_value cpu (Reg.sysarg i)

let ret_val cpu v =
  Cpu.set_value cpu Reg.ret v;
  Cpu.set_nat cpu Reg.ret false

let charge t cpu ~bytes ~per_byte =
  Cpu.add_io_cycles cpu (t.io.per_call + (bytes * per_byte))

let taint_positions t cpu addr s =
  Taint.tainted_string_positions cpu.Cpu.mem t.gran addr s

(* Word-granularity tags smear to the enclosing 8-byte word, so the
   clean program text adjacent to a tainted fragment looks tainted too
   (and stale tags from reused stack words survive sub-word stores,
   which never clear at word granularity).  For the meta-character
   policies (H3-H5), which need positional precision, a position only
   counts when its whole +/-7-byte neighbourhood is tainted: boundary
   smear and isolated stale words are discounted, while genuine
   attacker fragments (always longer than a word) keep their interior.
   Byte granularity is exact and needs no filter. *)
let strong_taint_positions t cpu addr s =
  let raw = taint_positions t cpu addr s in
  match t.gran with
  | Shift_mem.Granularity.Byte -> raw
  | Shift_mem.Granularity.Word ->
      let n = String.length s in
      let tainted = Array.make (max n 1) false in
      List.iter (fun p -> if p < n then tainted.(p) <- true) raw;
      List.filter
        (fun p ->
          let ok = ref true in
          for q = max 0 (p - 7) to min (n - 1) (p + 7) do
            if not tainted.(q) then ok := false
          done;
          !ok)
        raw

let read_guest_string cpu addr = Shift_mem.Memory.read_cstring cpu.Cpu.mem addr

(* When the run is traced, decorate a sink alert with the provenance
   chain of the tainted sink bytes — which input channel and offsets
   they came from, followed by the cross-process hops (pipe, exec argv)
   recorded in the sinking process's context — and log the sink event. *)
let enrich t cpu ~addr ~positions ~syscall alert =
  let ft = cpu.Cpu.flowtrace in
  if not ft.Flowtrace.enabled then alert
  else begin
    let hops = Flowtrace.chain ft ~addr ~positions in
    Flowtrace.on_sink ft ~ip:cpu.Cpu.ip ~policy:alert.Alert.policy
      ~detail:syscall;
    let sink =
      if t.multiproc then
        Printf.sprintf "sink %s via %s (pid %d, %s)" alert.Alert.policy syscall
          t.cur.pid t.cur.comm
      else Printf.sprintf "sink %s via %s" alert.Alert.policy syscall
    in
    Alert.with_chain alert (hops @ List.rev t.cur.crumbs @ [ sink ])
  end

(* an input's origin names the receiving process in multi-process
   worlds, so chains read "... via sys_recv (pid 1, httpd)" *)
let decorate_origin t origin =
  if t.multiproc then
    Printf.sprintf "%s (pid %d, %s)" origin t.cur.pid t.cur.comm
  else origin

let add_crumb t crumb =
  if not (List.mem crumb t.cur.crumbs) then
    t.cur.crumbs <- crumb :: t.cur.crumbs

(* Re-deposit sampled per-byte shadow state (taint bits and provenance
   ids) over [addr, addr+n), reading the sample window starting at [lo].
   This is the receiving half of a cross-process transfer; [crumb] is
   recorded when any deposited byte is tainted. *)
let deposit_shadow t cpu ~addr ~taints ~provs ~lo ~n ~crumb =
  if n > 0 then begin
    let any = ref false in
    if Tracking.sources_on t.tracking then begin
      let i = ref 0 in
      while !i < n do
        let v = taints.(lo + !i) in
        let j = ref !i in
        while !j < n && Bool.equal taints.(lo + !j) v do
          incr j
        done;
        Taint.set_range cpu.Cpu.mem t.gran
          ~addr:(Int64.add addr (Int64.of_int !i))
          ~len:(!j - !i) ~tainted:v;
        if v then any := true;
        i := !j
      done
    end
    else
      for k = 0 to n - 1 do
        if taints.(lo + k) then any := true
      done;
    let ft = cpu.Cpu.flowtrace in
    if ft.Flowtrace.enabled then begin
      let pmap = Flowtrace.provenance ft in
      for k = 0 to n - 1 do
        Provenance.set pmap (Int64.add addr (Int64.of_int k)) provs.(lo + k)
      done
    end;
    if !any then add_crumb t crumb
  end

(* Sample the shadow state of a guest byte range: the sending half of a
   cross-process transfer (pipe write, exec argument). *)
let sample_shadow t cpu ~addr ~data =
  let n = String.length data in
  let taints = Array.make (max n 1) false in
  List.iter
    (fun p -> if p < n then taints.(p) <- true)
    (taint_positions t cpu addr data);
  let provs = Array.make (max n 1) 0 in
  let ft = cpu.Cpu.flowtrace in
  if ft.Flowtrace.enabled then
    for k = 0 to n - 1 do
      provs.(k) <- Flowtrace.byte_id ft (Int64.add addr (Int64.of_int k))
    done;
  (taints, provs)

let do_open t cpu =
  let path_addr = arg cpu 0 in
  let path = read_guest_string cpu path_addr in
  (if Tracking.checks_on t.tracking then
     let tainted = taint_positions t cpu path_addr path in
     match Policy.check_open t.pol ~path ~tainted with
     | Some a ->
         raise_alert t
           (enrich t cpu ~addr:path_addr ~positions:tainted ~syscall:"sys_open" a)
     | None -> ());
  charge t cpu ~bytes:0 ~per_byte:0;
  match Hashtbl.find_opt t.files (resolve path) with
  | Some (content, file_tainted) ->
      ret_val cpu
        (Int64.of_int
           (alloc_stream_fd t
              { content; pos = 0; tainted = file_tainted; path = Some path }))
  | None -> ret_val cpu (-1L)

let channel_of fd s =
  match s.path with
  | Some p -> "file:" ^ p
  | None -> if fd = 0 then "stdin" else "socket"

let do_stream_read t cpu ~origin ~fd ~buf ~len s =
  let n = min len (String.length s.content - s.pos) in
  let n = max n 0 in
  let chunk = String.sub s.content s.pos n in
  let offset = s.pos in
  s.pos <- s.pos + n;
  Shift_mem.Memory.write_bytes cpu.Cpu.mem buf chunk;
  (* the kernel marks incoming data according to the configured
     taint sources (paper §3.3.1); clean input clears stale tags in
     reused buffers *)
  if n > 0 then begin
    if Tracking.sources_on t.tracking then
      Taint.set_range cpu.Cpu.mem t.gran ~addr:buf ~len:n ~tainted:s.tainted;
    let ft = cpu.Cpu.flowtrace in
    if ft.Flowtrace.enabled then
      Flowtrace.on_input ft ~ip:cpu.Cpu.ip ~channel:(channel_of fd s)
        ~origin:(decorate_origin t origin) ~offset ~addr:buf ~len:n
        ~tainted:s.tainted
  end;
  charge t cpu ~bytes:n ~per_byte:t.io.per_byte;
  ret_val cpu (Int64.of_int n)

let do_pipe_read t cpu ~buf ~len p =
  if Pipe.is_empty p then begin
    if p.Pipe.writers <= 0 then begin
      (* every write end is closed: end of file *)
      charge t cpu ~bytes:0 ~per_byte:0;
      ret_val cpu 0L
    end
    else
      (* writers still open but nothing buffered: rewind onto the
         syscall so the process retries on its next quantum (the same
         OS-granularity blocking as join/wait) *)
      cpu.Cpu.ip <- cpu.Cpu.ip - 1
  end
  else begin
    let chunks = Pipe.read p ~len in
    let pos = ref 0 in
    List.iter
      (fun (seg, start, n) ->
        let at = Int64.add buf (Int64.of_int !pos) in
        Shift_mem.Memory.write_bytes cpu.Cpu.mem at
          (String.sub seg.Pipe.data start n);
        deposit_shadow t cpu ~addr:at ~taints:seg.Pipe.taints
          ~provs:seg.Pipe.provs ~lo:start ~n
          ~crumb:
            (Printf.sprintf "pipe (pid %d, %s -> pid %d, %s)" seg.Pipe.src_pid
               seg.Pipe.src_comm t.cur.pid t.cur.comm);
        pos := !pos + n)
      chunks;
    charge t cpu ~bytes:!pos ~per_byte:t.io.per_byte;
    ret_val cpu (Int64.of_int !pos)
  end

let do_read t cpu ~origin =
  let fd = Int64.to_int (arg cpu 0) in
  let buf = arg cpu 1 in
  let len = Int64.to_int (arg cpu 2) in
  match entry_of t fd with
  | Some (Fstream oid) -> (
      match obj_of t oid with
      | Some { kind = Ostream s; _ } -> do_stream_read t cpu ~origin ~fd ~buf ~len s
      | _ -> ret_val cpu (-1L))
  | Some (Fpipe_r oid) -> (
      match pipe_of t oid with
      | Some p -> do_pipe_read t cpu ~buf ~len p
      | None -> ret_val cpu (-1L))
  | Some (Fpipe_w _) | None -> ret_val cpu (-1L)

let do_pipe_write t cpu ~buf ~len p =
  if p.Pipe.readers <= 0 then ret_val cpu (-1L)
  else begin
    let data = Shift_mem.Memory.read_bytes cpu.Cpu.mem buf ~len in
    let taints, provs = sample_shadow t cpu ~addr:buf ~data in
    Pipe.write p ~data ~taints ~provs ~src_pid:t.cur.pid ~src_comm:t.cur.comm;
    charge t cpu ~bytes:len ~per_byte:t.io.per_byte;
    ret_val cpu (Int64.of_int len)
  end

let do_fd_write t cpu =
  (* write(fd, buf, len) / send(sock, buf, len): pipe write ends buffer
     into the pipe; anything else lands in the output buffer *)
  let fd = Int64.to_int (arg cpu 0) in
  let buf = arg cpu 1 in
  let len = Int64.to_int (arg cpu 2) in
  match entry_of t fd with
  | Some (Fpipe_w oid) -> (
      match pipe_of t oid with
      | Some p -> do_pipe_write t cpu ~buf ~len p
      | None -> ret_val cpu (-1L))
  | Some (Fpipe_r _) -> ret_val cpu (-1L)
  | Some (Fstream _) | None ->
      let bytes = Shift_mem.Memory.read_bytes cpu.Cpu.mem buf ~len in
      Buffer.add_string t.out_buf bytes;
      charge t cpu ~bytes:len ~per_byte:t.io.per_byte;
      ret_val cpu (Int64.of_int len)

let do_accept t cpu =
  charge t cpu ~bytes:0 ~per_byte:0;
  match Queue.take_opt t.pending with
  | None -> ret_val cpu (-1L)
  | Some req ->
      let fd =
        alloc_stream_fd t
          { content = req; pos = 0; tainted = t.pol.Policy.taint_network; path = None }
      in
      ret_val cpu (Int64.of_int fd)

let do_sendfile t cpu =
  let fd = Int64.to_int (arg cpu 1) in
  let len = Int64.to_int (arg cpu 2) in
  match stream_of t fd with
  | None -> ret_val cpu (-1L)
  | Some s ->
      let n = max 0 (min len (String.length s.content - s.pos)) in
      Buffer.add_string t.out_buf (String.sub s.content s.pos n);
      s.pos <- s.pos + n;
      charge t cpu ~bytes:n ~per_byte:t.io.sendfile_per_byte;
      ret_val cpu (Int64.of_int n)

let do_close t cpu =
  (* closing a descriptor that isn't open is an error, like the
     other fd syscalls: the table is untouched and the guest sees
     the conventional -1 *)
  let fd = Int64.to_int (arg cpu 0) in
  match Hashtbl.find_opt t.cur.fds fd with
  | Some entry ->
      release_entry t entry;
      Hashtbl.remove t.cur.fds fd;
      ret_val cpu 0L
  | None -> ret_val cpu (-1L)

(* the heap may grow up to the top of its region's implemented offset
   bits; past that, tag-space translation would alias other regions *)
let heap_limit = Shift_mem.Addr.in_region 1 Shift_mem.Addr.impl_mask

let do_sbrk t cpu =
  let ctx = t.cur in
  if Int64.equal ctx.brk 0L then ctx.brk <- heap_base;
  let n = arg cpu 0 in
  let next = Int64.add ctx.brk n in
  (* reject growth (or shrinkage) that leaves the heap: below its base,
     past the region's implemented bits, or wrapped around — the break
     stays put and the guest sees the conventional -1 *)
  if
    Int64.compare next heap_base < 0
    || Int64.unsigned_compare next heap_limit > 0
  then ret_val cpu (-1L)
  else begin
    let old = ctx.brk in
    ctx.brk <- next;
    ret_val cpu old
  end

let do_string_sink t cpu ~check ~record ~syscall =
  let addr = arg cpu 0 in
  let s = read_guest_string cpu addr in
  (if Tracking.checks_on t.tracking then
     let tainted = strong_taint_positions t cpu addr s in
     match check ~s ~tainted with
     | Some a -> raise_alert t (enrich t cpu ~addr ~positions:tainted ~syscall a)
     | None -> ());
  record s;
  charge t cpu ~bytes:String.(length s) ~per_byte:1;
  ret_val cpu 0L

let do_html_out t cpu =
  let buf = arg cpu 0 in
  let len = Int64.to_int (arg cpu 1) in
  let html = Shift_mem.Memory.read_bytes cpu.Cpu.mem buf ~len in
  (if Tracking.checks_on t.tracking then
     let tainted = strong_taint_positions t cpu buf html in
     match Policy.check_html t.pol ~html ~tainted with
     | Some a ->
         raise_alert t
           (enrich t cpu ~addr:buf ~positions:tainted ~syscall:"sys_html_out" a)
     | None -> ());
  Buffer.add_string t.html_buf html;
  charge t cpu ~bytes:len ~per_byte:t.io.per_byte;
  ret_val cpu (Int64.of_int len)

let do_taint_set t cpu =
  let addr = arg cpu 0 in
  let len = Int64.to_int (arg cpu 1) in
  let flag = not (Int64.equal (arg cpu 2) 0L) in
  Taint.set_range cpu.Cpu.mem t.gran ~addr ~len ~tainted:flag;
  ret_val cpu 0L

let do_taint_chk t cpu =
  let addr = arg cpu 0 in
  let len = Int64.to_int (arg cpu 1) in
  ret_val cpu (Int64.of_int (Taint.count_tainted cpu.Cpu.mem t.gran ~addr ~len))

let set_threads t ~spawn ~join =
  t.spawn_hook <- Some spawn;
  t.join_hook <- Some join

let do_spawn t cpu =
  match t.spawn_hook with
  | None -> ret_val cpu (-1L)
  | Some spawn -> ret_val cpu (Int64.of_int (spawn cpu ~entry:(arg cpu 0) ~arg:(arg cpu 1)))

let do_join t cpu =
  match t.join_hook with
  | None -> ret_val cpu (-1L)
  | Some join -> (
      match join (Int64.to_int (arg cpu 0)) with
      | Some v -> ret_val cpu v
      | None ->
          (* not finished: rewind onto the syscall so the hart retries
             on its next quantum (a busy wait at OS granularity) *)
          cpu.Cpu.ip <- cpu.Cpu.ip - 1)

(* ---------- processes ---------- *)

let set_procs t ~fork ~exec ~wait =
  t.fork_hook <- Some fork;
  t.exec_hook <- Some exec;
  t.wait_hook <- Some wait;
  t.multiproc <- true

let base_ctx t = t.base
let current_ctx t = t.cur
let use_ctx t ctx = t.cur <- ctx
let ctx_pid ctx = ctx.pid
let set_comm ctx comm = ctx.comm <- comm

(* the child's descriptor table is a copy of the parent's: same objects,
   one more reference each (fd inheritance carries taint because the
   objects themselves do) *)
let fork_ctx t parent ~pid =
  let child =
    {
      pid;
      comm = parent.comm;
      fds = Hashtbl.create 16;
      next_fd = parent.next_fd;
      brk = parent.brk;
      crumbs = parent.crumbs;
      argv = parent.argv;
    }
  in
  Hashtbl.iter
    (fun fd entry ->
      Hashtbl.replace child.fds fd entry;
      retain_entry t entry)
    parent.fds;
  child

(* exec keeps the descriptor table and the breadcrumbs (the data lineage
   into this process is unchanged) but resets the image-owned state *)
let exec_reset_ctx _t ctx ~comm ~argv =
  ctx.comm <- comm;
  ctx.brk <- 0L;
  ctx.argv <- argv

(* process teardown: drop every descriptor, so pipe ends held only by a
   finished process stop counting (readers see EOF once the last writer
   is gone) *)
let close_ctx t ctx =
  Hashtbl.iter (fun _ entry -> release_entry t entry) ctx.fds;
  Hashtbl.reset ctx.fds

let do_fork t cpu =
  match t.fork_hook with
  | None -> ret_val cpu (-1L)
  | Some fork ->
      charge t cpu ~bytes:0 ~per_byte:0;
      ret_val cpu (fork cpu)

let do_exec t cpu =
  match t.exec_hook with
  | None -> ret_val cpu (-1L)
  | Some exec ->
      let prog = read_guest_string cpu (arg cpu 0) in
      let arg_addr = arg cpu 1 in
      let args =
        if Int64.equal arg_addr 0L then []
        else begin
          let data = read_guest_string cpu arg_addr in
          let taints, provs = sample_shadow t cpu ~addr:arg_addr ~data in
          [ { a_bytes = data; a_taints = taints; a_provs = provs } ]
        end
      in
      charge t cpu ~bytes:0 ~per_byte:0;
      (* a successful exec raises to unwind the replaced image; a normal
         return means the image was not found *)
      exec cpu ~prog ~args;
      ret_val cpu (-1L)

let do_wait t cpu =
  match t.wait_hook with
  | None -> ret_val cpu (-1L)
  | Some wait -> (
      match wait (Int64.to_int (arg cpu 0)) with
      | Wait_ready status ->
          charge t cpu ~bytes:0 ~per_byte:0;
          ret_val cpu status
      | Wait_none -> ret_val cpu (-1L)
      | Wait_block ->
          (* children still running: rewind onto the syscall and retry
             on the next quantum *)
          cpu.Cpu.ip <- cpu.Cpu.ip - 1)

let do_pipe t cpu =
  let buf = arg cpu 0 in
  let oid = alloc_obj t (Opipe (Pipe.create ())) in
  let rfd = alloc_fd t (Fpipe_r oid) in
  let wfd = alloc_fd t (Fpipe_w oid) in
  Shift_mem.Memory.write cpu.Cpu.mem buf ~width:8 (Int64.of_int rfd);
  Shift_mem.Memory.write cpu.Cpu.mem (Int64.add buf 8L) ~width:8
    (Int64.of_int wfd);
  charge t cpu ~bytes:0 ~per_byte:0;
  ret_val cpu 0L

let do_dup t cpu =
  let fd = Int64.to_int (arg cpu 0) in
  match entry_of t fd with
  | None -> ret_val cpu (-1L)
  | Some entry -> ret_val cpu (Int64.of_int (alloc_fd t entry))

let do_getpid t cpu = ret_val cpu (Int64.of_int t.cur.pid)

let do_getarg t cpu =
  let idx = Int64.to_int (arg cpu 0) in
  let buf = arg cpu 1 in
  match List.nth_opt t.cur.argv idx with
  | None -> ret_val cpu (-1L)
  | Some a ->
      let n = String.length a.a_bytes in
      Shift_mem.Memory.write_bytes cpu.Cpu.mem buf a.a_bytes;
      Shift_mem.Memory.write_u8 cpu.Cpu.mem (Int64.add buf (Int64.of_int n)) 0;
      deposit_shadow t cpu ~addr:buf ~taints:a.a_taints ~provs:a.a_provs ~lo:0
        ~n
        ~crumb:(Printf.sprintf "exec argv (pid %d, %s)" t.cur.pid t.cur.comm);
      (* The NUL terminator is the kernel's, not the argument's — but at
         word granularity it shares its grain with the last argv bytes
         unless it starts a fresh word, and word-level tracking must
         over-taint rather than erase the argument's tags. *)
      let nul = Int64.add buf (Int64.of_int n) in
      let aliases_argv =
        n > 0
        && t.gran = Shift_mem.Granularity.Word
        && not (Int64.equal (Int64.logand nul 7L) 0L)
      in
      if Tracking.sources_on t.tracking && not aliases_argv then
        Taint.set_range cpu.Cpu.mem t.gran ~addr:nul ~len:1 ~tainted:false;
      ret_val cpu (Int64.of_int n)

(* ---------- checkpoint/restore ---------- *)

type fd_state = {
  fd_content : string;
  fd_pos : int;
  fd_tainted : bool;
  fd_path : string option;
}

type obj_state = Os_stream of fd_state | Os_pipe of Pipe.state

type ctx_state = {
  cx_pid : int;
  cx_comm : string;
  cx_fds : (int * fd_entry) list;  (* sorted by fd *)
  cx_next_fd : int;
  cx_brk : int64;
  cx_crumbs : string list;  (* internal (newest-first) order *)
  cx_argv : arg_value list;
}

type dump = {
  d_files : (string * string * bool) list;
  d_objs : (int * int * obj_state) list;  (* oid, refs, state; sorted *)
  d_next_oid : int;
  d_ctx : ctx_state;  (* the base context *)
  d_pending : string list;
  d_output : string;
  d_html : string;
  d_sql : string list;  (* internal (newest-first) order *)
  d_commands : string list;  (* internal (newest-first) order *)
  d_alerts : Alert.t list;  (* internal (newest-first) order *)
}

let dump_ctx ctx =
  {
    cx_pid = ctx.pid;
    cx_comm = ctx.comm;
    cx_fds =
      Hashtbl.fold (fun fd entry acc -> (fd, entry) :: acc) ctx.fds []
      |> List.sort compare;
    cx_next_fd = ctx.next_fd;
    cx_brk = ctx.brk;
    cx_crumbs = ctx.crumbs;
    cx_argv = ctx.argv;
  }

(* Install a dumped context in place.  Descriptor entries are installed
   without touching reference counts: the object table dump already
   carries the aggregate counts. *)
let load_ctx_into ctx st =
  ctx.comm <- st.cx_comm;
  Hashtbl.reset ctx.fds;
  List.iter (fun (fd, entry) -> Hashtbl.replace ctx.fds fd entry) st.cx_fds;
  ctx.next_fd <- st.cx_next_fd;
  ctx.brk <- st.cx_brk;
  ctx.crumbs <- st.cx_crumbs;
  ctx.argv <- st.cx_argv

let ctx_of_state st =
  let ctx = make_ctx ~pid:st.cx_pid ~comm:st.cx_comm in
  load_ctx_into ctx st;
  ctx

let dump t =
  {
    d_files =
      Hashtbl.fold (fun path (content, tainted) acc -> (path, content, tainted) :: acc)
        t.files []
      |> List.sort compare;
    d_objs =
      Hashtbl.fold
        (fun oid o acc ->
          let st =
            match o.kind with
            | Ostream s ->
                Os_stream
                  {
                    fd_content = s.content;
                    fd_pos = s.pos;
                    fd_tainted = s.tainted;
                    fd_path = s.path;
                  }
            | Opipe p -> Os_pipe (Pipe.dump p)
          in
          (oid, o.refs, st) :: acc)
        t.objs []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b);
    d_next_oid = t.next_oid;
    d_ctx = dump_ctx t.base;
    d_pending = List.of_seq (Queue.to_seq t.pending);
    d_output = Buffer.contents t.out_buf;
    d_html = Buffer.contents t.html_buf;
    d_sql = t.sql;
    d_commands = t.commands;
    d_alerts = t.alert_log;
  }

let undump t d =
  Hashtbl.reset t.files;
  List.iter (fun (path, content, tainted) -> Hashtbl.replace t.files path (content, tainted)) d.d_files;
  Hashtbl.reset t.objs;
  List.iter
    (fun (oid, refs, st) ->
      let kind =
        match st with
        | Os_stream s ->
            Ostream
              { content = s.fd_content; pos = s.fd_pos; tainted = s.fd_tainted; path = s.fd_path }
        | Os_pipe p -> Opipe (Pipe.of_state p)
      in
      Hashtbl.replace t.objs oid { refs; kind })
    d.d_objs;
  t.next_oid <- d.d_next_oid;
  load_ctx_into t.base d.d_ctx;
  t.cur <- t.base;
  Queue.clear t.pending;
  List.iter (fun req -> Queue.add req t.pending) d.d_pending;
  Buffer.clear t.out_buf;
  Buffer.add_string t.out_buf d.d_output;
  Buffer.clear t.html_buf;
  Buffer.add_string t.html_buf d.d_html;
  t.sql <- d.d_sql;
  t.commands <- d.d_commands;
  t.alert_log <- d.d_alerts

let handler t cpu =
  let n = Int64.to_int (Cpu.get_value cpu Reg.sysnum) in
  if n = Sysno.exit_ then raise (Cpu.Exit_requested (arg cpu 0))
  else if n = Sysno.read then do_read t cpu ~origin:"sys_read"
  else if n = Sysno.write then do_fd_write t cpu
  else if n = Sysno.open_ then do_open t cpu
  else if n = Sysno.close then do_close t cpu
  else if n = Sysno.recv then do_read t cpu ~origin:"sys_recv"
  else if n = Sysno.send then do_fd_write t cpu
  else if n = Sysno.sbrk then do_sbrk t cpu
  else if n = Sysno.sendfile then do_sendfile t cpu
  else if n = Sysno.system then
    do_string_sink t cpu ~syscall:"sys_system"
      ~check:(fun ~s ~tainted -> Policy.check_system t.pol ~cmd:s ~tainted)
      ~record:(fun s -> t.commands <- s :: t.commands)
  else if n = Sysno.sql_exec then
    do_string_sink t cpu ~syscall:"sys_sql_exec"
      ~check:(fun ~s ~tainted -> Policy.check_sql t.pol ~query:s ~tainted)
      ~record:(fun s -> t.sql <- s :: t.sql)
  else if n = Sysno.html_out then do_html_out t cpu
  else if n = Sysno.taint_set then do_taint_set t cpu
  else if n = Sysno.taint_chk then do_taint_chk t cpu
  else if n = Sysno.dbt_alert then
    raise_alert t
      (Alert.make ~policy:"L1"
         "software-DBT inline check: tainted data used as an address")
  else if n = Sysno.accept then do_accept t cpu
  else if n = Sysno.spawn then do_spawn t cpu
  else if n = Sysno.join then do_join t cpu
  else if n = Sysno.fork then do_fork t cpu
  else if n = Sysno.exec then do_exec t cpu
  else if n = Sysno.wait then do_wait t cpu
  else if n = Sysno.pipe then do_pipe t cpu
  else if n = Sysno.dup then do_dup t cpu
  else if n = Sysno.getpid then do_getpid t cpu
  else if n = Sysno.getarg then do_getarg t cpu
  else ret_val cpu (-1L)
