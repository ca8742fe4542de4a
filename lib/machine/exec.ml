type machine = Cpu of Cpu.t | Sched of Sched.t
type t = { machine : machine; mutable finished : Cpu.outcome option }

let of_cpu cpu = { machine = Cpu cpu; finished = None }
let of_sched sched = { machine = Sched sched; finished = None }
let machine t = t.machine
let finished t = t.finished

let cpus t =
  match t.machine with
  | Cpu cpu -> [ cpu ]
  | Sched sched -> List.map (fun task -> task.Sched.cpu) (Sched.tasks sched)

let hart0 t =
  match t.machine with
  | Cpu cpu -> cpu
  | Sched sched -> (Sched.primary sched).Sched.cpu

let stats t =
  match t.machine with
  | Cpu cpu -> cpu.Cpu.stats
  | Sched sched -> Sched.stats sched

let superblock_stats t = Stats.sb_total (List.map Superblock.stats (cpus t))

let cache_stats t =
  List.fold_left
    (fun (h, m) cpu -> (h + Cache.hits cpu.Cpu.cache, m + Cache.misses cpu.Cpu.cache))
    (0, 0) (cpus t)

let run_for t ~budget =
  match t.finished with
  | Some o -> `Finished o
  | None ->
      let status =
        match t.machine with
        | Cpu cpu -> Superblock.run_for cpu ~budget
        | Sched sched -> Sched.run_for sched ~budget
      in
      (match status with
      | `Finished o -> t.finished <- Some o
      | `Yielded -> ());
      status

let run ?(fuel = 2_000_000_000) t =
  match run_for t ~budget:fuel with
  | `Finished o -> o
  | `Yielded -> Cpu.Out_of_fuel
