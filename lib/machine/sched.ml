(* The round robin shared by SMP harts and OS processes.  The tail of
   the current round is explicit state whose head carries what remains
   of its quantum, so an external budget boundary can suspend the
   machine mid-quantum and resume it without perturbing the
   interleaving. *)

type state = Running | Done of int64 | Crashed of Fault.t * int
type shape = Concurrent | Time_shared
type task = { id : int; mutable cpu : Cpu.t; mutable state : state }
type owner = ..

type t = {
  shape : shape;
  quantum : int;
  primary : int;
  enter : task -> unit;
  left : task -> unit;
  owner : owner option;
  mutable tasks : task list; (* kept in id order, the primary first *)
  mutable round : (task * int) list;
  mutable finished : Cpu.outcome option;
  (* counters of CPUs no longer on the machine; [stats] adds the live
     ones on top *)
  mutable retired : Stats.t;
  (* the CPU an in-flight exec replaced: its counters are folded into
     [retired] only after the turn-over has unwound the superblock
     driver, which charges the aborted block's instructions on the way
     out *)
  mutable retiring : Cpu.t option;
}

exception Turn_over

let ignore_task (_ : task) = ()

let check ~quantum ~primary ~ids ~round =
  let bad part fmt = Printf.ksprintf (fun msg -> Error (part, msg)) fmt in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  let unknown (id, _) = not (List.mem id ids)
  and out_of_quantum (_, rem) = rem < 1 || rem > quantum in
  if quantum <= 0 then bad `Quantum "must be positive, got %d" quantum
  else if ids = [] || List.hd ids <> primary then
    bad `Tasks "id %d (the primary) must come first" primary
  else if not (increasing ids) then bad `Tasks "ids must increase"
  else
    match (List.find_opt unknown round, List.find_opt out_of_quantum round) with
    | Some (id, _), _ -> bad `Round "id %d is not on the machine" id
    | None, Some (id, rem) ->
        bad `Round "id %d has %d of a %d-instruction quantum left" id rem quantum
    | None, None -> Ok ()

let of_parts ~shape ~quantum ~primary ?(enter = ignore_task) ?(left = ignore_task)
    ?owner ~tasks ~round ~finished ~retired () =
  (match check ~quantum ~primary ~ids:(List.map (fun (id, _, _) -> id) tasks) ~round with
  | Ok () -> ()
  | Error (_, msg) -> invalid_arg ("Sched: " ^ msg));
  let tasks = List.map (fun (id, state, cpu) -> { id; cpu; state }) tasks in
  let round =
    List.map (fun (id, rem) -> (List.find (fun task -> task.id = id) tasks, rem)) round
  in
  { shape; quantum; primary; enter; left; owner; tasks; round; finished; retired;
    retiring = None }

let create ~shape ?(quantum = 50) ~primary ?enter ?left ?owner cpu =
  of_parts ~shape ~quantum ~primary ?enter ?left ?owner
    ~tasks:[ (primary, Running, cpu) ]
    ~round:[] ~finished:None ~retired:(Stats.create ()) ()

(* ---------- the machine's task list ---------- *)

let spawn t ~id cpu =
  let task = { id; cpu; state = Running } in
  (* [t.round] holds only tasks that were runnable when the round
     started: the newcomer's first turn is in the next round *)
  t.tasks <- t.tasks @ [ task ];
  task

let finalize_cycles cpu = cpu.Cpu.stats.Stats.cycles <- Pipeline.cycles cpu.Cpu.pipe

let retire t cpu =
  finalize_cycles cpu;
  t.retired <- Stats.total [ t.retired; cpu.Cpu.stats ]

let remove t task =
  retire t task.cpu;
  t.tasks <- List.filter (fun other -> other != task) t.tasks

let exec t task cpu =
  t.retiring <- Some task.cpu;
  task.cpu <- cpu;
  raise Turn_over

let finish_retiring t =
  Option.iter (retire t) t.retiring;
  t.retiring <- None

(* ---------- the round robin ---------- *)

(* run up to [n] instructions on a task; returns the instructions
   actually spent.  Stops early only when the task leaves [Running].
   Execution goes through the superblock driver, which interprets
   per-instruction whenever the fast path does not apply, so the
   interleaving is instruction-exact either way. *)
let run_steps t task n =
  let spent, out = Superblock.steps task.cpu ~limit:n in
  (match out with
  | None -> ()
  | Some (Cpu.Exited v) -> task.state <- Done v
  | Some (Cpu.Faulted (Fault.Call_stack_underflow, _)) when task.id <> t.primary ->
      (* a secondary task returning from its entry function is a
         normal exit; its result is in the return register *)
      task.state <- Done (Cpu.get_value task.cpu Shift_isa.Reg.ret)
  | Some (Cpu.Faulted (f, ip)) -> task.state <- Crashed (f, ip)
  | Some Cpu.Out_of_fuel ->
      (* the driver executes at most [n] instructions and carries no
         fuel of its own; only the bounded run loops can report
         exhaustion *)
      failwith
        "Sched.run_steps: Superblock.steps reported Out_of_fuel, but \
         single-slice execution is unfueled");
  if task.state <> Running then t.left task;
  spent

let run_for t ~budget =
  match t.finished with
  | Some o -> `Finished o
  | None ->
      let spent = ref 0 in
      let yielded = ref false in
      (* keep per-task cycle counts consistent even when a syscall
         handler raises (policy violations propagate as exceptions) *)
      Fun.protect ~finally:(fun () ->
          List.iter (fun task -> finalize_cycles task.cpu) t.tasks)
      @@ fun () ->
      while t.finished = None && not !yielded do
        match t.round with
        | [] -> (
            match
              List.filter_map
                (fun task -> if task.state = Running then Some (task, t.quantum) else None)
                t.tasks
            with
            | [] ->
                (* every task is finished but the primary's outcome did
                   not propagate: cannot happen (a running primary
                   always progresses), but stay safe *)
                t.finished <- Some Cpu.Out_of_fuel
            | runnable -> t.round <- runnable)
        | (task, remaining) :: rest ->
            if task.state <> Running then t.round <- rest
            else begin
              let allowance = min remaining (budget - !spent) in
              if allowance <= 0 then yielded := true
              else begin
                t.enter task;
                let used, turned_over =
                  try (run_steps t task allowance, false)
                  with Turn_over ->
                    finish_retiring t;
                    (allowance, true)
                in
                spent := !spent + used;
                if (not turned_over) && task.state = Running && remaining - used > 0
                then
                  (* the budget cut the quantum short: stay at the head
                     so the schedule is independent of budget slicing *)
                  t.round <- (task, remaining - used) :: rest
                else t.round <- rest;
                if task.id = t.primary then
                  match task.state with
                  | Done v -> t.finished <- Some (Cpu.Exited v)
                  | Crashed (f, ip) -> t.finished <- Some (Cpu.Faulted (f, ip))
                  | Running -> ()
              end
            end
      done;
      (match t.finished with Some o -> `Finished o | None -> `Yielded)

(* ---------- observation ---------- *)

let stats t =
  let live = List.map (fun task -> task.cpu.Cpu.stats) t.tasks in
  match t.shape with
  | Concurrent -> Stats.concurrent live
  | Time_shared -> Stats.total (t.retired :: live)

let tasks t = t.tasks
let find t id = List.find_opt (fun task -> task.id = id) t.tasks
let primary t = List.hd t.tasks
let owner t = t.owner
let quantum t = t.quantum
let round t = List.map (fun (task, rem) -> (task.id, rem)) t.round
let finished t = t.finished
let retired t = t.retired
