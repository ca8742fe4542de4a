(* The process table.

   Each process owns a full machine context: a CPU (register file,
   pipeline, superblock heat; the code it runs is its image's, shared),
   a private address space — which carries the taint bitmap, since tags
   live in guest memory — a private Flowtrace provenance shadow, and a
   kernel context (descriptor table, heap break, comm).  [fork]
   deep-copies all four, so the child's taint and provenance state is
   exactly the parent's at the fork point; [exec] replaces the image
   and address space while the kernel context (and with it the
   inherited descriptors) survives.

   The CPUs are the tasks of a time-shared Sched machine, which runs
   the round robin; this module keeps what only processes have (pids
   and parents, contexts and shadows) and sees the schedule through two
   hooks: a process is entered (install its context and shadow) and a
   process left the runnable state (release its descriptors). *)

module Cpu = Shift_machine.Cpu
module Sched = Shift_machine.Sched
module Flowtrace = Shift_machine.Flowtrace
module Memory = Shift_mem.Memory
module Provenance = Shift_mem.Provenance
module Reg = Shift_isa.Reg

type proc = {
  task : Sched.task;  (* pid, CPU and state *)
  parent : int;
  mutable image : string option;  (* exec'd program name; None = main *)
  ctx : World.ctx;
  mutable pmap : Provenance.t;
}

type t = {
  world : World.t;
  load : comm:string -> Cpu.t option;
  mutable procs : proc list;  (* in pid order, as the machine's tasks *)
  mutable next_pid : int;
}

type Sched.owner += Table of t

let proc_of t task = List.find (fun p -> p.task == task) t.procs

(* Make the world's syscalls and the process's shadows line up before
   its turn: install its kernel context and its provenance map
   (sources and the event ring stay shared machine-wide). *)
let enter t task =
  let proc = proc_of t task in
  World.use_ctx t.world proc.ctx;
  let ft = task.Sched.cpu.Cpu.flowtrace in
  if ft.Flowtrace.enabled then Flowtrace.set_provenance ft proc.pmap

(* a process that exited or crashed releases its descriptors *)
let left t task = World.close_ctx t.world (proc_of t task).ctx

let current t =
  let pid = World.ctx_pid (World.current_ctx t.world) in
  match List.find_opt (fun p -> p.task.Sched.id = pid) t.procs with
  | Some p -> p
  | None -> invalid_arg "Process: no process owns the current context"

(* ---------- fork ---------- *)

let copy_call_stack src dst =
  Stack.clear dst;
  List.iter
    (fun frame -> Stack.push frame dst)
    (List.rev (List.of_seq (Stack.to_seq src)))

let fork_cpu (parent : Cpu.t) =
  (* private copy of the address space — and, because tags live in
     guest memory, of the whole taint bitmap *)
  let mem = Memory.clone parent.Cpu.mem in
  let cpu = Cpu.of_code ~mem parent.Cpu.code in
  Array.blit parent.Cpu.values 0 cpu.Cpu.values 0 (Array.length parent.Cpu.values);
  Array.blit parent.Cpu.nats 0 cpu.Cpu.nats 0 (Array.length parent.Cpu.nats);
  Array.blit parent.Cpu.preds 0 cpu.Cpu.preds 0 (Array.length parent.Cpu.preds);
  cpu.Cpu.unat <- parent.Cpu.unat;
  copy_call_stack parent.Cpu.call_stack cpu.Cpu.call_stack;
  (* resume right after the fork syscall, with the child's return
     value: 0, clean *)
  cpu.Cpu.ip <- parent.Cpu.ip + 1;
  Cpu.set_value cpu Reg.ret 0L;
  Cpu.set_nat cpu Reg.ret false;
  cpu.Cpu.syscall_handler <- parent.Cpu.syscall_handler;
  cpu.Cpu.flowtrace <- parent.Cpu.flowtrace;
  Flowtrace.copy_regs parent.Cpu.ftregs cpu.Cpu.ftregs;
  (* the constant 0 the child sees in [ret] has no provenance *)
  cpu.Cpu.ftregs.Flowtrace.id.(Reg.ret) <- 0;
  cpu.Cpu.ftregs.Flowtrace.depth.(Reg.ret) <- 0;
  cpu.Cpu.ftregs.Flowtrace.washed.(Reg.ret) <- 0;
  cpu.Cpu.sb.Cpu.sb_on <- parent.Cpu.sb.Cpu.sb_on;
  cpu.Cpu.tracking <- parent.Cpu.tracking;
  cpu

let do_fork t sched cpu =
  let parent = current t in
  assert (parent.task.Sched.cpu == cpu);
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  (* the child enters the schedule at the next round *)
  let task = Sched.spawn sched ~id:pid (fork_cpu cpu) in
  let child =
    {
      task;
      parent = parent.task.Sched.id;
      image = parent.image;
      ctx = World.fork_ctx t.world parent.ctx ~pid;
      pmap = Provenance.clone parent.pmap;
    }
  in
  t.procs <- t.procs @ [ child ];
  Int64.of_int pid

(* ---------- exec ---------- *)

let do_exec t sched cpu ~prog ~args =
  let proc = current t in
  assert (proc.task.Sched.cpu == cpu);
  match t.load ~comm:prog with
  | None -> () (* not found: the World returns -1 to the caller *)
  | Some fresh ->
      (* the fresh CPU joins the running machine: shared kernel, flow
         trace and tag backend, same superblock switch *)
      fresh.Cpu.syscall_handler <- cpu.Cpu.syscall_handler;
      fresh.Cpu.flowtrace <- cpu.Cpu.flowtrace;
      fresh.Cpu.tracking <- cpu.Cpu.tracking;
      fresh.Cpu.sb.Cpu.sb_on <- cpu.Cpu.sb.Cpu.sb_on;
      World.exec_reset_ctx t.world proc.ctx ~comm:prog ~argv:args;
      proc.image <- Some prog;
      (* fresh address space, fresh per-byte provenance; the exec
         arguments re-enter through sys_getarg *)
      proc.pmap <- Provenance.create ();
      let ft = fresh.Cpu.flowtrace in
      if ft.Flowtrace.enabled then Flowtrace.set_provenance ft proc.pmap;
      Sched.exec sched proc.task fresh

(* ---------- wait ---------- *)

let reap t sched proc status =
  Sched.remove sched proc.task;
  t.procs <- List.filter (fun p -> p != proc) t.procs;
  World.Wait_ready status

let do_wait t sched arg_pid =
  let me = current t in
  let children = List.filter (fun p -> p.parent = me.task.Sched.id) t.procs in
  let wanted =
    if arg_pid > 0 then List.filter (fun p -> p.task.Sched.id = arg_pid) children
    else children
  in
  if wanted = [] then World.Wait_none
  else
    (* reap the lowest-pid finished child ([procs] is in pid order) *)
    match List.find_opt (fun p -> p.task.Sched.state <> Sched.Running) wanted with
    | Some ({ task = { Sched.state = Sched.Done status; _ }; _ } as p) ->
        reap t sched p status
    | Some p -> reap t sched p (-1L)
    | None -> World.Wait_block

(* ---------- construction ---------- *)

let wire t sched =
  World.set_procs t.world ~fork:(do_fork t sched)
    ~exec:(fun cpu ~prog ~args -> do_exec t sched cpu ~prog ~args)
    ~wait:(do_wait t sched);
  sched

let create ?quantum ?(comm = "main") ~world ~load cpu =
  let ctx = World.base_ctx world in
  World.set_comm ctx comm;
  let ft = cpu.Cpu.flowtrace in
  let pmap =
    if ft.Flowtrace.enabled then Flowtrace.provenance ft else Provenance.create ()
  in
  let t = { world; load; procs = []; next_pid = 2 } in
  let sched =
    Sched.create ~shape:Sched.Time_shared ?quantum ~primary:1 ~enter:(enter t)
      ~left:(left t) ~owner:(Table t) cpu
  in
  t.procs <- [ { task = Sched.primary sched; parent = 0; image = None; ctx; pmap } ];
  wire t sched

let table sched =
  match Sched.owner sched with Some (Table t) -> Some t | _ -> None

(* ---------- checkpoint/restore ---------- *)

type part = {
  p_pid : int;
  p_parent : int;
  p_image : string option;
  p_state : Sched.state;
  p_cpu : Cpu.t;
  p_ctx : World.ctx;
  p_pmap : Provenance.t;
}

let parts t =
  List.map
    (fun p ->
      {
        p_pid = p.task.Sched.id;
        p_parent = p.parent;
        p_image = p.image;
        p_state = p.task.Sched.state;
        p_cpu = p.task.Sched.cpu;
        p_ctx = p.ctx;
        p_pmap = p.pmap;
      })
    t.procs

let next_pid t = t.next_pid

let of_parts ~quantum ~world ~load ~procs ~next_pid ~round ~finished ~retired () =
  let t = { world; load; procs = []; next_pid } in
  let sched =
    Sched.of_parts ~shape:Sched.Time_shared ~quantum ~primary:1 ~enter:(enter t)
      ~left:(left t) ~owner:(Table t)
      ~tasks:(List.map (fun p -> (p.p_pid, p.p_state, p.p_cpu)) procs)
      ~round ~finished ~retired ()
  in
  t.procs <-
    List.map2
      (fun p task ->
        { task; parent = p.p_parent; image = p.p_image; ctx = p.p_ctx; pmap = p.p_pmap })
      procs (Sched.tasks sched);
  wire t sched
