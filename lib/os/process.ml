(* The process table and round-robin scheduler.

   Each process owns a full machine context: a CPU (register file,
   pipeline, superblock heat; the code it runs is its image's, shared),
   a private address space — which carries the taint bitmap, since tags
   live in guest memory — a private Flowtrace provenance shadow, and a
   kernel context (descriptor table, heap break, comm).  [fork] deep-copies all four, so the child's taint and
   provenance state is exactly the parent's at the fork point; [exec]
   replaces the image and address space while the kernel context (and
   with it the inherited descriptors) survives.

   Scheduling mirrors {!Shift_machine.Smp}: a resumable round-robin
   round whose head tracks the remainder of its quantum, so an
   external budget boundary can suspend mid-quantum and resume without
   perturbing the interleaving.  The one extra wrinkle is [exec]: the
   replaced image cannot finish the in-flight superblock, so the exec
   syscall raises {!Exec_switch} to unwind it, the process is charged
   its full allowance, and its turn ends — which keeps the
   interleaving independent of how the run is sliced. *)

module Cpu = Shift_machine.Cpu
module Superblock = Shift_machine.Superblock
module Fault = Shift_machine.Fault
module Stats = Shift_machine.Stats
module Pipeline = Shift_machine.Pipeline
module Flowtrace = Shift_machine.Flowtrace
module Memory = Shift_mem.Memory
module Provenance = Shift_mem.Provenance
module Reg = Shift_isa.Reg

exception Exec_switch

type state =
  | Run
  | Zombie of int64  (* exited; status not yet reaped by the parent *)
  | Crashed of Fault.t * int

type proc = {
  pid : int;
  parent : int;
  mutable image : string option;  (* exec'd program name; None = main *)
  mutable cpu : Cpu.t;  (* replaced wholesale by exec *)
  mutable state : state;
  ctx : World.ctx;
  mutable pmap : Provenance.t;
}

type t = {
  quantum : int;
  world : World.t;
  load : comm:string -> Cpu.t option;
  mutable procs : proc list;  (* kept in pid order *)
  mutable next_pid : int;
  (* resumable scheduler state, exactly as in Smp: the tail of the
     current round, the head's [int] being what remains of its
     quantum *)
  mutable round : (proc * int) list;
  mutable finished : Cpu.outcome option;
  (* counters of processes that no longer have a live CPU (reaped
     children, pre-exec images); [stats] adds the live ones on top *)
  mutable retired : Stats.t;
  (* the image an in-flight exec retires: its stats are folded into
     [retired] only after Exec_switch has unwound the superblock
     driver, which charges the block's instructions on the way out *)
  mutable retiring : Cpu.t option;
}

(* Make the world's syscalls and the current process's shadows line up
   before running it: install its kernel context and its provenance
   map (sources and the event ring stay shared machine-wide). *)
let switch_to t proc =
  World.use_ctx t.world proc.ctx;
  let ft = proc.cpu.Cpu.flowtrace in
  if ft.Flowtrace.enabled then Flowtrace.set_provenance ft proc.pmap

let current t =
  match World.current_ctx t.world with
  | ctx -> (
      match
        List.find_opt (fun p -> p.pid = World.ctx_pid ctx) t.procs
      with
      | Some p -> p
      | None -> invalid_arg "Process: no process owns the current context")

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

let do_fork t cpu =
  let parent = current t in
  assert (parent.cpu == cpu);
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let child =
    {
      pid;
      parent = parent.pid;
      image = parent.image;
      cpu = fork_cpu cpu;
      state = Run;
      ctx = World.fork_ctx t.world parent.ctx ~pid;
      pmap = Provenance.clone parent.pmap;
    }
  in
  (* the child enters the schedule at the next round, like Smp.spawn *)
  t.procs <- t.procs @ [ child ];
  Int64.of_int pid

(* ---------- exec ---------- *)

let do_exec t cpu ~prog ~args =
  let proc = current t in
  assert (proc.cpu == cpu);
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
      t.retiring <- Some cpu;
      proc.image <- Some prog;
      proc.cpu <- fresh;
      (* fresh address space, fresh per-byte provenance; the exec
         arguments re-enter through sys_getarg *)
      proc.pmap <- Provenance.create ();
      let ft = fresh.Cpu.flowtrace in
      if ft.Flowtrace.enabled then Flowtrace.set_provenance ft proc.pmap;
      raise Exec_switch

(* ---------- wait ---------- *)

let reap t proc status =
  proc.cpu.Cpu.stats.Stats.cycles <- Pipeline.cycles proc.cpu.Cpu.pipe;
  t.retired <- Stats.total [ t.retired; proc.cpu.Cpu.stats ];
  t.procs <- List.filter (fun p -> p.pid <> proc.pid) t.procs;
  World.Wait_ready status

let do_wait t arg_pid =
  let me = current t in
  let children = List.filter (fun p -> p.parent = me.pid) t.procs in
  let wanted =
    if arg_pid > 0 then List.filter (fun p -> p.pid = arg_pid) children
    else children
  in
  if wanted = [] then World.Wait_none
  else
    (* reap the lowest-pid finished child ([procs] is in pid order) *)
    match
      List.find_opt
        (fun p -> match p.state with Run -> false | _ -> true)
        wanted
    with
    | Some ({ state = Zombie status; _ } as p) -> reap t p status
    | Some ({ state = Crashed _; _ } as p) -> reap t p (-1L)
    | Some _ | None -> World.Wait_block

(* ---------- construction ---------- *)

let wire t =
  World.set_procs t.world ~fork:(do_fork t)
    ~exec:(fun cpu ~prog ~args -> do_exec t cpu ~prog ~args)
    ~wait:(do_wait t)

let create ?(quantum = 50) ?(comm = "main") ~world ~load cpu =
  let ctx = World.base_ctx world in
  World.set_comm ctx comm;
  let ft = cpu.Cpu.flowtrace in
  let pmap =
    if ft.Flowtrace.enabled then Flowtrace.provenance ft
    else Provenance.create ()
  in
  let pid1 = { pid = 1; parent = 0; image = None; cpu; state = Run; ctx; pmap } in
  let t =
    {
      quantum;
      world;
      load;
      procs = [ pid1 ];
      next_pid = 2;
      round = [];
      finished = None;
      retired = Stats.create ();
      retiring = None;
    }
  in
  wire t;
  t

(* ---------- the scheduler ---------- *)

(* run up to [n] instructions on a process (see Smp.run_steps: the
   superblock driver falls back to the interpreter instruction by
   instruction, so interleaving is exact either way) *)
let run_steps t proc n =
  if proc.state <> Run then 0
  else begin
    let spent, out = Superblock.steps proc.cpu ~limit:n in
    (match out with
    | None -> ()
    | Some (Cpu.Exited v) ->
        proc.state <- Zombie v;
        World.close_ctx t.world proc.ctx
    | Some (Cpu.Faulted (Fault.Call_stack_underflow, _)) when proc.pid > 1 ->
        (* a forked child returning off the top of its entry function
           is a normal exit; its status is in the return register *)
        proc.state <- Zombie (Cpu.get_value proc.cpu Reg.ret);
        World.close_ctx t.world proc.ctx
    | Some (Cpu.Faulted (f, ip)) ->
        proc.state <- Crashed (f, ip);
        World.close_ctx t.world proc.ctx
    | Some Cpu.Out_of_fuel ->
        failwith
          "Process.run_steps: Superblock.steps reported Out_of_fuel, but \
           single-slice execution is unfueled");
    spent
  end

let finalize_cycles t =
  List.iter
    (fun p -> p.cpu.Cpu.stats.Stats.cycles <- Pipeline.cycles p.cpu.Cpu.pipe)
    t.procs

(* Fold a replaced image's counters into [retired] once Exec_switch has
   finished unwinding (the superblock driver adds the aborted block's
   instructions to the old CPU's stats as the exception passes it). *)
let finish_retiring t =
  match t.retiring with
  | None -> ()
  | Some cpu ->
      cpu.Cpu.stats.Stats.cycles <- Pipeline.cycles cpu.Cpu.pipe;
      t.retired <- Stats.total [ t.retired; cpu.Cpu.stats ];
      t.retiring <- None

let propagate_pid1 t proc =
  if proc.pid = 1 then
    match proc.state with
    | Zombie v -> t.finished <- Some (Cpu.Exited v)
    | Crashed (f, ip) -> t.finished <- Some (Cpu.Faulted (f, ip))
    | Run -> ()

let run_for t ~budget =
  match t.finished with
  | Some o -> `Finished o
  | None ->
      let spent = ref 0 in
      let yielded = ref false in
      Fun.protect ~finally:(fun () -> finalize_cycles t) @@ fun () ->
      while t.finished = None && not !yielded do
        match t.round with
        | [] -> (
            match
              List.filter_map
                (fun p -> if p.state = Run then Some (p, t.quantum) else None)
                t.procs
            with
            | [] ->
                (* pid 1 is not Run yet nothing propagated: cannot
                   happen, but stay safe *)
                t.finished <- Some Cpu.Out_of_fuel
            | runnable -> t.round <- runnable)
        | (proc, remaining) :: rest ->
            if proc.state <> Run then t.round <- rest
            else begin
              let allowance = min remaining (budget - !spent) in
              if allowance <= 0 then yielded := true
              else begin
                switch_to t proc;
                let used, switched =
                  try (run_steps t proc allowance, false)
                  with Exec_switch ->
                    finish_retiring t;
                    (allowance, true)
                in
                spent := !spent + used;
                if
                  (not switched)
                  && proc.state = Run
                  && remaining - used > 0
                then
                  (* the budget cut the quantum short: stay at the head
                     so the schedule is independent of budget slicing *)
                  t.round <- (proc, remaining - used) :: rest
                else
                  (* turn over — including after exec, whatever quantum
                     remained, so the interleaving does not depend on
                     where a budget boundary fell relative to the exec *)
                  t.round <- rest;
                propagate_pid1 t proc
              end
            end
      done;
      (match t.finished with Some o -> `Finished o | None -> `Yielded)

let run ?(fuel = 2_000_000_000) t =
  match run_for t ~budget:fuel with
  | `Finished o -> o
  | `Yielded -> Cpu.Out_of_fuel

(* ---------- observation ---------- *)

let pid1_cpu t =
  match List.find_opt (fun p -> p.pid = 1) t.procs with
  | Some p -> p.cpu
  | None -> invalid_arg "Process.pid1_cpu: pid 1 was reaped"

(* Processes time-multiplex one simulated machine, so their cycle
   counts add up (contrast Stats.concurrent for SMP harts). *)
let stats t =
  Stats.total (t.retired :: List.map (fun p -> p.cpu.Cpu.stats) t.procs)

let superblock_stats t =
  Stats.sb_total (List.map (fun p -> Superblock.stats p.cpu) t.procs)

let cache_stats t =
  List.fold_left
    (fun (h, m) p ->
      ( h + Shift_machine.Cache.hits p.cpu.Cpu.cache,
        m + Shift_machine.Cache.misses p.cpu.Cpu.cache ))
    (0, 0) t.procs

let finished t = t.finished
let quantum t = t.quantum

type part = {
  p_pid : int;
  p_parent : int;
  p_image : string option;
  p_state : state;
  p_cpu : Cpu.t;
  p_ctx : World.ctx;
  p_pmap : Provenance.t;
}

let parts t =
  List.map
    (fun p ->
      {
        p_pid = p.pid;
        p_parent = p.parent;
        p_image = p.image;
        p_state = p.state;
        p_cpu = p.cpu;
        p_ctx = p.ctx;
        p_pmap = p.pmap;
      })
    t.procs

let round t = List.map (fun (p, rem) -> (p.pid, rem)) t.round
let retired t = t.retired
let next_pid t = t.next_pid

let live_count t =
  List.length (List.filter (fun p -> p.state = Run) t.procs)

(* ---------- restore ---------- *)

let of_parts ?(quantum = 50) ~world ~load ~procs ~next_pid ~round ~finished
    ~retired () =
  let procs =
    List.map
      (fun p ->
        {
          pid = p.p_pid;
          parent = p.p_parent;
          image = p.p_image;
          cpu = p.p_cpu;
          state = p.p_state;
          ctx = p.p_ctx;
          pmap = p.p_pmap;
        })
      procs
  in
  (match procs with
  | { pid = 1; _ } :: _ -> ()
  | _ -> invalid_arg "Process.of_parts: pid 1 must be first");
  let round =
    List.map
      (fun (pid, rem) ->
        match List.find_opt (fun p -> p.pid = pid) procs with
        | Some p -> (p, rem)
        | None ->
            invalid_arg "Process.of_parts: round references an unknown pid")
      round
  in
  let t =
    {
      quantum;
      world;
      load;
      procs;
      next_pid;
      round;
      finished;
      retired;
      retiring = None;
    }
  in
  wire t;
  t
