module Mode = Shift_compiler.Mode
module Compile = Shift_compiler.Compile
module Image = Shift_compiler.Image
module Cpu = Shift_machine.Cpu
module Smp = Shift_machine.Smp
module Exec = Shift_machine.Exec
module Fault = Shift_machine.Fault
module Prov = Shift_isa.Prov
module Policy = Shift_policy.Policy
module Alert = Shift_policy.Alert
module World = Shift_os.World
module Procs = Shift_os.Process
module Tracking = Shift_tracking.Tracking
module Backend = Shift_tracking.Backend

let default_fuel = 2_000_000_000

module Config = struct
  type threading =
    | Single
    | Threads of { quantum : int option }
    | Processes of { quantum : int option; comm : string option }
        (** the multi-process OS personality: a {!Shift_os.Process}
            table scheduled round-robin; [comm] names pid 1 *)

  type t = {
    policy : Policy.t;
    io_cost : World.io_cost;
    fuel : int;
    setup : World.t -> unit;
    threading : threading;
    trace : Shift_machine.Flowtrace.options option;
    hwtrace : bool;
        (** record the cache-set observation trace on the primary hart
            (see {!Shift_machine.Hwtrace}); off by default — the leak
            detector turns it on *)
    superblocks : bool;
    backend : Backend.t;
    images : (string * Image.t) list;
        (** aux images the guest may [exec] by name (multi-process
            sessions); compiled with the same mode/backend as the main
            image *)
    coproc_capacity : int option;
    coproc_drain_rate : int option;
    coproc_stall_penalty : int option;
        (** tag-coprocessor queue knobs, [None] = the model defaults;
            only meaningful under [Backend.Coproc] *)
  }

  let default =
    {
      policy = Policy.default;
      io_cost = World.default_io_cost;
      fuel = default_fuel;
      setup = (fun _ -> ());
      threading = Single;
      trace = None;
      hwtrace = false;
      superblocks = true;
      backend = Backend.Nat;
      images = [];
      coproc_capacity = None;
      coproc_drain_rate = None;
      coproc_stall_penalty = None;
    }

  let make ?(policy = Policy.default) ?(io_cost = World.default_io_cost)
      ?(fuel = default_fuel) ?(setup = fun _ -> ()) ?(threading = Single)
      ?trace ?(hwtrace = false) ?(superblocks = true) ?(backend = Backend.Nat)
      ?(images = []) ?coproc_capacity ?coproc_drain_rate ?coproc_stall_penalty
      () =
    {
      policy;
      io_cost;
      fuel;
      setup;
      threading;
      trace;
      hwtrace;
      superblocks;
      backend;
      images;
      coproc_capacity;
      coproc_drain_rate;
      coproc_stall_penalty;
    }
end

let gran_of_mode = function
  | Mode.Uninstrumented -> Shift_mem.Granularity.Word
  | Mode.Shift { granularity; _ } | Mode.Software_dbt { granularity } -> granularity

(* Only the nat backend consumes SHIFT's compiled-in instrumentation;
   the coprocessor and the baseline both run the uninstrumented guest.
   Every name-driven entry point (CLI, catalog, bench) routes its mode
   choice through here so the pairing cannot drift. *)
let effective_mode ~backend mode =
  match (backend : Backend.t) with
  | Backend.Nat -> mode
  | Backend.Coproc | Backend.Off -> Mode.Uninstrumented

(* the coprocessor maintains its bitmap (and the OS reads it) at byte
   granularity regardless of the — uninstrumented — guest's mode *)
let gran_for ~backend mode =
  match (backend : Backend.t) with
  | Backend.Coproc -> Shift_mem.Granularity.Byte
  | Backend.Nat | Backend.Off -> gran_of_mode mode

(* The runtime library compiled once per key and linked into every
   image, as the paper links one instrumented glibc.  The memo is shared
   by every domain, so lookups and inserts are mutex-guarded and the
   compile happens outside the lock.  Two domains racing on one key may
   both compile it — [Compile.library] is pure in the key — and the
   first insert wins, so every image of a key shares one library. *)
let runtime_callees = Ir.callees Shift_runtime.Runtime.program
let libraries_lock = Mutex.create ()
let libraries : (Mode.t * Compile.options * bool * string list, Compile.library) Hashtbl.t =
  Hashtbl.create 16

let runtime_library ~mode ~options ~keep_taint_markers ~taint_returns =
  let taint_returns =
    List.sort_uniq compare (List.filter (fun f -> List.mem f runtime_callees) taint_returns)
  in
  let key = (mode, options, keep_taint_markers, taint_returns) in
  match Mutex.protect libraries_lock (fun () -> Hashtbl.find_opt libraries key) with
  | Some lib -> lib
  | None ->
      let lib =
        Compile.library ~mode ~options ~taint_returns ~keep_taint_markers
          Shift_runtime.Runtime.program
      in
      Mutex.protect libraries_lock (fun () ->
          match Hashtbl.find_opt libraries key with
          | Some first -> first
          | None ->
              Hashtbl.add libraries key lib;
              lib)

let build ?(with_runtime = true) ?(options = Compile.default_options) ?(taint_returns = [])
    ?(backend = Backend.Nat) ~mode prog =
  let mode = effective_mode ~backend mode in
  let keep_taint_markers = backend = Backend.Coproc in
  let lib =
    if with_runtime then
      Some (runtime_library ~mode ~options ~keep_taint_markers ~taint_returns)
    else None
  in
  Compile.compile ~mode ~options ~taint_returns ~keep_taint_markers ?lib prog

let load (image : Image.t) =
  let cpu = Cpu.of_code (Image.code image) in
  List.iter
    (fun (addr, bytes) -> Shift_mem.Memory.write_bytes cpu.Cpu.mem addr bytes)
    image.data;
  cpu

(* A NaT-consumption fault raised by store-instrumentation code means
   the *store* address was tainted: the bitmap lookup (a load) faulted
   while computing the tag address of a store (Figure 5).  Reattribute
   it so the alert carries the right policy number (L2, not L1). *)
let effective_nat_use (image : Image.t) ip use =
  match use with
  | Fault.Load_address -> (
      if ip < 0 || ip >= Shift_isa.Program.size image.program then use
      else
        match (image.program.code.(ip)).Shift_isa.Instr.prov with
        | Prov.St_compute | Prov.St_mem -> Fault.Store_address
        | _ -> use)
  | _ -> use

let outcome_of image policy (res : Cpu.outcome) : Report.outcome =
  match res with
  | Cpu.Exited code -> Report.Exited code
  | Cpu.Out_of_fuel -> Report.Timeout
  | Cpu.Faulted (Fault.Nat_consumption use, ip) when policy.Policy.low_level -> (
      let use = effective_nat_use image ip use in
      match Policy.alert_of_fault (Fault.nat_use_to_string use) with
      | Some a -> Report.Alert a
      | None -> Report.Fault (Fault.Nat_consumption use))
  | Cpu.Faulted (f, _) -> Report.Fault f

(* ---------- the resumable session ---------- *)

type live = {
  image : Image.t;
  config : Config.t;
  world : World.t;
  engine : Exec.t;
  tracking : Tracking.t;
  procs : Procs.t option;
      (** the process table behind a [Custom] engine, for checkpoint *)
  mutable fuel_left : int;
  mutable result : Report.outcome option;
}

(* the engine closures a process table presents to the session layer *)
let procs_engine procs =
  Exec.of_custom
    {
      Exec.c_run_for = (fun ~budget -> Procs.run_for procs ~budget);
      c_stats = (fun () -> Procs.stats procs);
      c_hart0 = (fun () -> Procs.pid1_cpu procs);
      c_superblock_stats = (fun () -> Procs.superblock_stats procs);
      c_cache_stats = (fun () -> Procs.cache_stats procs);
    }

(* fresh CPUs for images the guest execs by name *)
let image_loader images ~comm = Option.map load (List.assoc_opt comm images)

(* the session's tracking handle, bound to the memory whose bitmap a
   tag coprocessor maintains *)
let create_tracking config mem =
  Tracking.create ~backend:config.Config.backend
    ?capacity:config.Config.coproc_capacity
    ?drain_rate:config.Config.coproc_drain_rate
    ?stall_penalty:config.Config.coproc_stall_penalty
    ~low_level:config.Config.policy.Policy.low_level ~mem ()

let start ?(config = Config.default) (image : Image.t) =
  let cpu = load image in
  cpu.Cpu.sb.Cpu.sb_on <- config.Config.superblocks;
  let tracking = create_tracking config cpu.Cpu.mem in
  cpu.Cpu.tracking <- tracking;
  (match config.Config.trace with
  | Some options ->
      cpu.Cpu.flowtrace <- Shift_machine.Flowtrace.create ~options ()
  | None -> ());
  if config.Config.hwtrace then
    cpu.Cpu.hwtrace <- Shift_machine.Hwtrace.create ();
  let world =
    World.create ~policy:config.Config.policy
      ~gran:(gran_for ~backend:config.Config.backend image.mode)
      ~io_cost:config.Config.io_cost ~tracking ()
  in
  config.Config.setup world;
  cpu.Cpu.syscall_handler <- Some (World.handler world);
  let engine, procs =
    match config.Config.threading with
    | Config.Single -> (Exec.of_cpu cpu, None)
    | Config.Threads { quantum } ->
        let smp =
          Smp.create ?quantum ~stack_top:Shift_compiler.Layout.stack_top
            ~stack_stride:(Int64.of_int (1 lsl 20))
            cpu
        in
        World.set_threads world
          ~spawn:(fun parent ~entry ~arg -> Smp.spawn smp ~parent ~entry ~arg)
          ~join:(fun tid ->
            match Smp.state_of smp tid with
            | Some Smp.Running -> None
            | Some (Smp.Done v) -> Some v
            | Some (Smp.Crashed _) | None -> Some (-1L));
        (Exec.of_smp smp, None)
    | Config.Processes { quantum; comm } ->
        (* the coprocessor backend binds its tag pipeline to one
           address space; fork's cloned memories would be invisible
           to it *)
        if config.Config.backend = Backend.Coproc then
          invalid_arg
            "Session.start: the coproc backend tracks a single address \
             space; it cannot drive a multi-process personality";
        let procs =
          Procs.create ?quantum ?comm ~world
            ~load:(image_loader config.Config.images)
            cpu
        in
        (procs_engine procs, Some procs)
  in
  {
    image;
    config;
    world;
    engine;
    tracking;
    procs;
    fuel_left = config.Config.fuel;
    result = None;
  }

let world live = live.world
let engine live = live.engine
let outcome live = live.result
let fuel_left live = live.fuel_left
let tracking live = live.tracking

let flowtrace live =
  let ft = (Exec.hart0 live.engine).Cpu.flowtrace in
  if ft.Shift_machine.Flowtrace.enabled then Some ft else None

let superblock_stats live = Exec.superblock_stats live.engine
let cache_stats live = Exec.cache_stats live.engine

let hwtrace live =
  let hw = (Exec.hart0 live.engine).Cpu.hwtrace in
  if hw.Shift_machine.Hwtrace.enabled then Some hw else None

let finish live o =
  live.result <- Some o;
  `Finished o

(* A run that stops with records still in the tag queue must drain it:
   a pending check may only now meet its tainted tag (the detection-lag
   story), and leaving the queue full would make coproc outcomes depend
   on where the run happened to end. *)
let timeout live =
  match Tracking.flush live.tracking with
  | () -> finish live Report.Timeout
  | exception Alert.Violation a -> finish live (Report.Alert a)

let advance live ~budget =
  match live.result with
  | Some o -> `Finished o
  | None ->
      if live.fuel_left <= 0 then timeout live
      else begin
        let slice = min budget live.fuel_left in
        match
          let st = Exec.run_for live.engine ~budget:slice in
          (match st with
          | `Finished _ -> Tracking.flush live.tracking
          | `Yielded -> ());
          st
        with
        | `Finished res ->
            finish live (outcome_of live.image live.config.Config.policy res)
        | `Yielded ->
            live.fuel_left <- live.fuel_left - slice;
            if live.fuel_left <= 0 then timeout live else `Yielded
        | exception Alert.Violation a -> finish live (Report.Alert a)
      end

let report live =
  let outcome =
    match live.result with Some o -> o | None -> Report.Timeout
  in
  {
    Report.outcome;
    stats = Exec.stats live.engine;
    logged = World.alerts live.world;
    output = World.output live.world;
    html = World.html_output live.world;
    sql = World.sql_queries live.world;
    commands = World.system_commands live.world;
    flow = Option.map Shift_machine.Flowtrace.summary (flowtrace live);
    cache_hits = fst (Exec.cache_stats live.engine);
    cache_misses = snd (Exec.cache_stats live.engine);
  }

(* ---------- checkpoint/restore ---------- *)

let snapshot_threading = function
  | Config.Single -> Snapshot.T_single
  | Config.Threads { quantum } -> Snapshot.T_threads quantum
  | Config.Processes { quantum; comm } ->
      Snapshot.T_procs { tp_quantum = quantum; tp_comm = comm }

let session_threading = function
  | Snapshot.T_single -> Config.Single
  | Snapshot.T_threads quantum -> Config.Threads { quantum }
  | Snapshot.T_procs { tp_quantum; tp_comm } ->
      Config.Processes { quantum = tp_quantum; comm = tp_comm }

let snapshot_config config =
  {
    Snapshot.c_policy = config.Config.policy;
    c_io_cost = config.Config.io_cost;
    c_fuel = config.Config.fuel;
    c_threading = snapshot_threading config.Config.threading;
    c_trace = config.Config.trace;
    c_hwtrace = config.Config.hwtrace;
    c_superblocks = config.Config.superblocks;
    c_backend = config.Config.backend;
    c_images = config.Config.images;
    c_coproc_capacity = config.Config.coproc_capacity;
    c_coproc_drain_rate = config.Config.coproc_drain_rate;
    c_coproc_stall_penalty = config.Config.coproc_stall_penalty;
  }

let checkpoint ?meta live =
  let tracking =
    if Tracking.per_instr live.tracking then Some (Tracking.export live.tracking)
    else None
  in
  match live.procs with
  | Some procs ->
      Snapshot.capture_procs ?meta ~image:live.image
        ~config:(snapshot_config live.config)
        ?tracking ~fuel_left:live.fuel_left ~result:live.result ~procs
        ~world:live.world ()
  | None ->
      Snapshot.capture ?meta ~image:live.image
        ~config:(snapshot_config live.config)
        ?tracking ~fuel_left:live.fuel_left ~result:live.result
        ~engine:live.engine ~world:live.world ()

let restore (snap : Snapshot.t) =
  let image = snap.Snapshot.image in
  let sc = snap.Snapshot.config in
  (* the original world-setup closure cannot be serialised, and does not
     need to be: its effects are already in the restored world and
     memory state *)
  let config =
    Config.make ~policy:sc.Snapshot.c_policy ~io_cost:sc.Snapshot.c_io_cost
      ~fuel:sc.Snapshot.c_fuel
      ~threading:(session_threading sc.Snapshot.c_threading)
      ?trace:sc.Snapshot.c_trace ~hwtrace:sc.Snapshot.c_hwtrace
      ~superblocks:sc.Snapshot.c_superblocks ~backend:sc.Snapshot.c_backend
      ~images:sc.Snapshot.c_images
      ?coproc_capacity:sc.Snapshot.c_coproc_capacity
      ?coproc_drain_rate:sc.Snapshot.c_coproc_drain_rate
      ?coproc_stall_penalty:sc.Snapshot.c_coproc_stall_penalty ()
  in
  let mem = Shift_mem.Memory.create () in
  Snapshot.load_memory mem snap.Snapshot.memory;
  let tracking = create_tracking config mem in
  (match snap.Snapshot.tracking with
  | Some d -> Tracking.import tracking d
  | None -> ());
  let world =
    World.create ~policy:sc.Snapshot.c_policy
      ~gran:(gran_for ~backend:config.Config.backend image.mode)
      ~io_cost:sc.Snapshot.c_io_cost ~tracking ()
  in
  World.undump world snap.Snapshot.world;
  let flowtrace =
    match snap.Snapshot.flow with
    | Some (d, pages) ->
        let ft = Shift_machine.Flowtrace.of_dump d in
        Snapshot.load_provenance (Shift_machine.Flowtrace.provenance ft) pages;
        Some ft
    | None -> None
  in
  let make_cpu_on mem image hart =
    let cpu = Cpu.of_code ~mem (Image.code image) in
    cpu.Cpu.sb.Cpu.sb_on <- config.Config.superblocks;
    cpu.Cpu.tracking <- tracking;
    Snapshot.import_cpu hart cpu;
    cpu.Cpu.syscall_handler <- Some (World.handler world);
    (match flowtrace with Some ft -> cpu.Cpu.flowtrace <- ft | None -> ());
    cpu
  in
  let make_cpu hart = make_cpu_on mem image hart in
  let engine, procs =
    match snap.Snapshot.machine with
    | Snapshot.M_cpu hart -> (Exec.of_cpu (make_cpu hart), None)
    | Snapshot.M_smp { sm_quantum; sm_harts; sm_round; sm_finished } ->
        let harts =
          List.map (fun (id, state, hart) -> (id, state, make_cpu hart)) sm_harts
        in
        let smp =
          Smp.of_parts ~quantum:sm_quantum
            ~stack_top:Shift_compiler.Layout.stack_top
            ~stack_stride:(Int64.of_int (1 lsl 20))
            ~harts ~round:sm_round ~finished:sm_finished ()
        in
        World.set_threads world
          ~spawn:(fun parent ~entry ~arg -> Smp.spawn smp ~parent ~entry ~arg)
          ~join:(fun tid ->
            match Smp.state_of smp tid with
            | Some Smp.Running -> None
            | Some (Smp.Done v) -> Some v
            | Some (Smp.Crashed _) | None -> Some (-1L));
        (Exec.of_smp smp, None)
    | Snapshot.M_procs
        { pm_quantum; pm_next_pid; pm_procs; pm_round; pm_finished; pm_retired }
      ->
        let parts =
          List.map
            (fun (ps : Snapshot.proc_snap) ->
              let pimage =
                match ps.Snapshot.ps_image with
                | None -> image
                | Some name -> (
                    match List.assoc_opt name sc.Snapshot.c_images with
                    | Some img -> img
                    | None ->
                        invalid_arg
                          (Printf.sprintf
                             "Session.restore: process %d runs unknown image \
                              %S"
                             ps.Snapshot.ps_pid name))
              in
              (* every process owns its address space and provenance
                 shadow; its pages were dumped per-process *)
              let pmem = Shift_mem.Memory.create () in
              Snapshot.load_memory pmem ps.Snapshot.ps_mem;
              let cpu = make_cpu_on pmem pimage ps.Snapshot.ps_hart in
              let pmap = Shift_mem.Provenance.create () in
              Snapshot.load_provenance pmap ps.Snapshot.ps_prov;
              let ctx =
                if ps.Snapshot.ps_pid = 1 then begin
                  (* pid 1 lives in the world's base context, which the
                     world dump restored already; re-loading is
                     idempotent and keeps the object identity *)
                  let ctx = World.base_ctx world in
                  World.load_ctx_into ctx ps.Snapshot.ps_ctx;
                  ctx
                end
                else World.ctx_of_state ps.Snapshot.ps_ctx
              in
              {
                Procs.p_pid = ps.Snapshot.ps_pid;
                p_parent = ps.Snapshot.ps_parent;
                p_image = ps.Snapshot.ps_image;
                p_state = ps.Snapshot.ps_state;
                p_cpu = cpu;
                p_ctx = ctx;
                p_pmap = pmap;
              })
            pm_procs
        in
        let procs =
          Procs.of_parts ~quantum:pm_quantum ~world
            ~load:(image_loader sc.Snapshot.c_images)
            ~procs:parts ~next_pid:pm_next_pid ~round:pm_round
            ~finished:pm_finished ~retired:pm_retired ()
        in
        (procs_engine procs, Some procs)
  in
  (* the trace buffer itself is not snapshotted: a restored session
     records from here on, so straight trace = pre-checkpoint prefix ++
     post-restore suffix (held by the identity test in test_snapshot) *)
  if config.Config.hwtrace then
    (Exec.hart0 engine).Cpu.hwtrace <- Shift_machine.Hwtrace.create ();
  {
    image;
    config;
    world;
    engine;
    tracking;
    procs;
    fuel_left = snap.Snapshot.fuel_left;
    result = snap.Snapshot.result;
  }

let exec ?config image =
  let live = start ?config image in
  (* one maximal slice: [advance] clamps to the configured fuel and maps
     exhaustion to [Timeout] itself, so this always finishes *)
  (match advance live ~budget:max_int with `Finished _ | `Yielded -> ());
  report live

(* ---------- the historical entry points, as one-line wrappers ---------- *)

let run_image ?policy ?io_cost ?fuel ?setup ?trace ?superblocks ?backend image =
  exec
    ~config:
      (Config.make ?policy ?io_cost ?fuel ?setup ?trace ?superblocks ?backend ())
    image

let run ?with_runtime ?taint_returns ?policy ?io_cost ?fuel ?setup ?trace
    ?superblocks ?backend ~mode prog =
  run_image ?policy ?io_cost ?fuel ?setup ?trace ?superblocks ?backend
    (build ?with_runtime ?taint_returns ?backend ~mode prog)

let run_image_mt ?policy ?io_cost ?fuel ?setup ?quantum ?superblocks ?backend
    image =
  exec
    ~config:
      (Config.make ?policy ?io_cost ?fuel ?setup
         ~threading:(Config.Threads { quantum }) ?superblocks ?backend ())
    image

let run_mt ?with_runtime ?taint_returns ?policy ?io_cost ?fuel ?setup ?quantum
    ?superblocks ?backend ~mode prog =
  run_image_mt ?policy ?io_cost ?fuel ?setup ?quantum ?superblocks ?backend
    (build ?with_runtime ?taint_returns ?backend ~mode prog)
