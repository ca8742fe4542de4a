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

module Config = Config

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
   by every domain; [Compile.library] is pure in the key, so a race
   costs at most a second compile and every image of a key shares one
   library. *)
let runtime_callees = Ir.callees Shift_runtime.Runtime.program
let libraries = Memo.create ~equal:( = )

let runtime_library ~mode ~options ~keep_taint_markers ~taint_returns =
  let taint_returns =
    List.sort_uniq compare (List.filter (fun f -> List.mem f runtime_callees) taint_returns)
  in
  Memo.find_or_add libraries (mode, options, keep_taint_markers, taint_returns) (fun () ->
      Compile.library ~mode ~options ~taint_returns ~keep_taint_markers
        Shift_runtime.Runtime.program)

(* An image cache: programs by physical identity, and everything else
   the build reads by value. *)
type image_cache =
  (Ir.program * (Mode.t * bool * Compile.options * string list * bool), Image.t) Memo.t

let image_cache () : image_cache =
  Memo.create ~equal:(fun (p, k) (p', k') -> p == p' && k = k')

let build ?cache ?(with_runtime = true) ?(options = Compile.default_options)
    ?(taint_returns = []) ?(backend = Backend.Nat) ~mode prog =
  let mode = effective_mode ~backend mode in
  let keep_taint_markers = backend = Backend.Coproc in
  let compile () =
    let lib =
      if with_runtime then
        Some (runtime_library ~mode ~options ~keep_taint_markers ~taint_returns)
      else None
    in
    Compile.compile ~mode ~options ~taint_returns ~keep_taint_markers ?lib prog
  in
  match cache with
  | None -> compile ()
  | Some cache ->
      Memo.find_or_add cache
        (prog, (mode, keep_taint_markers, options, taint_returns, with_runtime))
        compile

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
  mutable fuel_left : int;
  mutable result : Report.outcome option;
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

let create_world config ~tracking (image : Image.t) =
  World.create ~policy:config.Config.policy
    ~gran:(gran_for ~backend:config.Config.backend image.mode)
    ~io_cost:config.Config.io_cost ~tracking ()

(* what every hart of a session shares: the superblock switch, the
   tracking backend, the OS world and the flow trace (disabled unless
   the config asked for one) *)
let wire config ~tracking ~world ~flowtrace (cpu : Cpu.t) =
  cpu.Cpu.sb.Cpu.sb_on <- config.Config.superblocks;
  cpu.Cpu.tracking <- tracking;
  cpu.Cpu.syscall_handler <- Some (World.handler world);
  Option.iter (fun ft -> cpu.Cpu.flowtrace <- ft) flowtrace

(* the buffer itself is never snapshotted: a session records from its
   start or restore point on, so straight trace = pre-checkpoint prefix
   ++ post-restore suffix (held by the identity test in test_snapshot) *)
let arm_hwtrace config engine =
  if config.Config.hwtrace then
    (Exec.hart0 engine).Cpu.hwtrace <- Shift_machine.Hwtrace.create ()

let smp_stack_stride = Int64.of_int (1 lsl 20)

(* an SMP machine, with the world's spawn/join calls routed to it *)
let smp_engine world sched =
  World.set_threads world
    ~spawn:(fun parent ~entry ~arg ->
      Smp.spawn sched ~stack_top:Shift_compiler.Layout.stack_top
        ~stack_stride:smp_stack_stride ~parent ~entry ~arg)
    ~join:(Smp.join sched);
  Exec.of_sched sched

let start ?(config = Config.default) (image : Image.t) =
  let cpu = load image in
  let tracking = create_tracking config cpu.Cpu.mem in
  let world = create_world config ~tracking image in
  config.Config.setup world;
  let flowtrace =
    Option.map
      (fun options -> Shift_machine.Flowtrace.create ~options ())
      config.Config.trace
  in
  wire config ~tracking ~world ~flowtrace cpu;
  let engine =
    match config.Config.threading with
    | Config.Single -> Exec.of_cpu cpu
    | Config.Threads { quantum } -> smp_engine world (Smp.create ?quantum cpu)
    | Config.Processes { quantum; comm } ->
        (* the coprocessor backend binds its tag pipeline to one
           address space; fork's cloned memories would be invisible
           to it *)
        if config.Config.backend = Backend.Coproc then
          invalid_arg
            "Session.start: the coproc backend tracks a single address \
             space; it cannot drive a multi-process personality";
        Exec.of_sched
          (Procs.create ?quantum ?comm ~world
             ~load:(image_loader config.Config.images)
             cpu)
  in
  arm_hwtrace config engine;
  {
    image;
    config;
    world;
    engine;
    tracking;
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

let checkpoint ?meta live =
  let tracking =
    if Tracking.per_instr live.tracking then Some (Tracking.export live.tracking)
    else None
  in
  Snapshot.capture ?meta ?tracking ~image:live.image
    ~config:live.config ~fuel_left:live.fuel_left ~result:live.result
    ~engine:live.engine ~world:live.world ()

(* The world-setup closure is not re-run: its effects are already in the
   restored world and memory state. *)
let restore (snap : Snapshot.t) =
  let image = snap.Snapshot.image and config = snap.Snapshot.config in
  let mem = Shift_mem.Memory.create () in
  Snapshot.load_memory mem snap.Snapshot.memory;
  let tracking = create_tracking config mem in
  Option.iter (Tracking.import tracking) snap.Snapshot.tracking;
  let world = create_world config ~tracking image in
  World.undump world snap.Snapshot.world;
  let flowtrace =
    Option.map
      (fun (d, pages) ->
        let ft = Shift_machine.Flowtrace.of_dump d in
        Snapshot.load_provenance (Shift_machine.Flowtrace.provenance ft) pages;
        ft)
      snap.Snapshot.flow
  in
  let make_cpu_on mem image hart =
    let cpu = Cpu.of_code ~mem (Image.code image) in
    Snapshot.import_cpu hart cpu;
    wire config ~tracking ~world ~flowtrace cpu;
    cpu
  in
  let make_cpu hart = make_cpu_on mem image hart in
  let engine =
    match snap.Snapshot.machine with
    | Snapshot.M_cpu hart -> Exec.of_cpu (make_cpu hart)
    | Snapshot.M_smp { sm_quantum; sm_harts; sm_round; sm_finished } ->
        let harts =
          List.map (fun (id, state, hart) -> (id, state, make_cpu hart)) sm_harts
        in
        smp_engine world
          (Smp.of_parts ~quantum:sm_quantum ~harts ~round:sm_round
             ~finished:sm_finished ())
    | Snapshot.M_procs
        { pm_quantum; pm_next_pid; pm_procs; pm_round; pm_finished; pm_retired }
      ->
        let parts =
          List.map
            (fun (ps : Snapshot.proc_snap) ->
              (* decoding checked that every image name is configured *)
              let pimage =
                Option.fold ~none:image
                  ~some:(fun name -> List.assoc name config.Config.images)
                  ps.Snapshot.ps_image
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
        Exec.of_sched
          (Procs.of_parts ~quantum:pm_quantum ~world
             ~load:(image_loader config.Config.images)
             ~procs:parts ~next_pid:pm_next_pid ~round:pm_round
             ~finished:pm_finished ~retired:pm_retired ())
  in
  arm_hwtrace config engine;
  {
    image;
    config;
    world;
    engine;
    tracking;
    fuel_left = snap.Snapshot.fuel_left;
    result = snap.Snapshot.result;
  }

let exec ?config image =
  let live = start ?config image in
  (* one maximal slice: [advance] clamps to the configured fuel and maps
     exhaustion to [Timeout] itself, so this always finishes *)
  (match advance live ~budget:max_int with `Finished _ | `Yielded -> ());
  report live
