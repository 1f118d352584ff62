(* [Fresh] threads start by running [body]; [Suspended] and [Blocked]
   ones resume at [k].  Keeping the continuation in a mutable field
   rather than in the constructor makes a context switch allocate
   nothing beyond the continuation the runtime itself builds. *)
type thread_state = Fresh | Suspended | Running | Blocked | Done

type thread = {
  id : int;
  name : string;
  body : unit -> unit;
  mutable vclock : int;
  mutable state : thread_state;
  mutable k : (unit, unit) Effect.Deep.continuation;
      (* valid in [Suspended] and [Blocked]; stale otherwise *)
}

type t = {
  mutable threads : thread array;
  mutable pending_rev : thread list;
      (* threads spawned but not yet frozen into [threads]; newest
         first.  Buffering here makes N spawns O(N) total instead of the
         O(N^2) of repeated [Array.append]. *)
  mutable n_threads : int;
  rng : Sim_rng.t;
  cost_jitter : int;
  deterministic_slice : int;
  mutable fast_budget : int;
      (* remaining steps the current thread may charge inline before the
         next forced suspension; refilled to [deterministic_slice] each
         time the scheduler resumes a thread *)
  mutable horizon : int;
      (* minimum vclock over the other runnable threads, taken when the
         current thread was resumed with [deterministic_slice > 0] and
         another thread runnable; [min_int] otherwise, or once a mutex
         hand-off invalidates it.  A charge leaving the caller strictly
         below it means [pick] would re-pick the caller. *)
  mutable prefix : int array;
  mutable prefix_len : int;
      (* the tie-draw bounds [pick] draws while scanning the threads
         before the current one, in scan order; see [arm_horizon] *)
  mutable runnable_count : int;
      (* threads in state [Fresh], [Suspended] or [Running]; when this
         is 1 (the caller itself) [step] charges inline with no pick *)
  mutable steps : int;
  mutable crash_at_step : int option;
  mutable crashed : bool;
  mutable current : int;  (* -1 when no thread is executing *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable started : bool;
  mutable next_mutex_id : int;
  mutable tracer : Obs.Tracer.t option;
  mutable last_resumed : int;
      (* thread id the run loop last handed the CPU to; context-switch
         events fire only when it changes, not on every loop pass *)
  quantum_on : bool;
  quantum : quantum;
}

(* A batched-execution quantum: permission for the device layer to
   charge up to [q_budget] uncontended steps straight onto the granted
   thread's clock without calling {!step} at all.  The scheduler grants
   one only when a charge through {!step} could not have suspended,
   drawn differently, or crashed — exactly one runnable thread, inline
   budget left, and the crash window clamped out of reach — so a
   quantum-charged burst is observationally identical to the same ops
   charged one [step] at a time (DESIGN.md, "Quantum accounting").

   [q_used] steps are accrued per-op onto [q_thread.vclock] (so clock
   reads mid-quantum are always settled) but folded into [t.steps] /
   [t.fast_budget] only at the next settle point: a {!step} entry, a
   mutex block or hand-off, thread exit, or an explicit barrier. *)
and quantum = {
  q_sched : t;
  q_rng : Sim_rng.t;  (* alias of [q_sched.rng]: same draw stream *)
  q_jitter : int;
  mutable q_thread : thread;
  mutable q_budget : int;  (* remaining grant; 0 = no quantum held *)
  mutable q_used : int;  (* charged but not yet folded into [t.steps] *)
}

type outcome =
  | Completed
  | Crashed of { at_step : int }
  | Deadlocked of { blocked : string list }

type mutex = {
  mid : int;
  sched : t;
  mutable owner : int;  (* holder's thread id; -1 when free *)
  waiters : thread Queue.t;  (* each resumes at its [k] *)
}

(* Constant effects, so performing one allocates nothing.  The performer
   has already done its bookkeeping: charged its step, or queued itself
   on the mutex it blocks on. *)
type _ Effect.t +=
  | Suspend_eff : unit Effect.t
  | Block_eff : unit Effect.t
  | Crash_eff : unit Effect.t

let default_slice = 4096

(* A continuation that is never resumed: the [k] of threads that have
   not suspended yet. *)
let no_k : (unit, unit) Effect.Deep.continuation =
  let k : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.try_with Effect.perform Suspend_eff
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend_eff ->
              Some (fun (c : (a, unit) Effect.Deep.continuation) -> k := Some c)
          | _ -> None);
    };
  Option.get !k

(* Placeholder for [q_thread] while no quantum is held.  Never charged:
   [q_budget] is 0 whenever it is installed. *)
let no_thread =
  {
    id = -1;
    name = "<no-quantum>";
    body = ignore;
    vclock = 0;
    state = Done;
    k = no_k;
  }

let create ?(seed = 42) ?(cost_jitter = 0) ?(deterministic_slice = default_slice)
    ?(quantum = true) () =
  if deterministic_slice < 0 then
    invalid_arg "Scheduler.create: deterministic_slice must be >= 0";
  let rng = Sim_rng.create ~seed in
  let rec t =
    {
      threads = [||];
      pending_rev = [];
      n_threads = 0;
      rng;
      cost_jitter;
      deterministic_slice;
      fast_budget = 0;
      horizon = min_int;
      prefix = [||];
      prefix_len = 0;
      runnable_count = 0;
      steps = 0;
      crash_at_step = None;
      crashed = false;
      current = -1;
      failure = None;
      started = false;
      next_mutex_id = 0;
      tracer = None;
      last_resumed = -1;
      quantum_on = quantum;
      quantum = q;
    }
  and q =
    {
      q_sched = t;
      q_rng = rng;
      q_jitter = cost_jitter;
      q_thread = no_thread;
      q_budget = 0;
      q_used = 0;
    }
  in
  t

let freeze t =
  if t.pending_rev <> [] then begin
    t.threads <-
      Array.append t.threads (Array.of_list (List.rev t.pending_rev));
    t.pending_rev <- []
  end

let thread_count t = t.n_threads

let spawn t ?name f =
  if t.started then invalid_arg "Scheduler.spawn: scheduler already ran";
  let id = t.n_threads in
  let name = Option.value name ~default:(Printf.sprintf "thread-%d" id) in
  let th = { id; name; body = f; vclock = 0; state = Fresh; k = no_k } in
  t.pending_rev <- th :: t.pending_rev;
  t.n_threads <- t.n_threads + 1;
  t.runnable_count <- t.runnable_count + 1;
  id

let current_thread t =
  if t.current < 0 then
    invalid_arg "Scheduler: not inside a simulated thread";
  t.threads.(t.current)

let self t = (current_thread t).id

(* Non-raising views of the execution context, for tracer closures that
   must work both inside simulated threads and in out-of-thread harness
   code (setup, crash handling, recovery). *)
let in_thread t = t.current >= 0
let current_id t = t.current
let set_tracer t tr = t.tracer <- tr

(* Hook point for history recorders: the current thread's virtual clock,
   readable from inside the thread without freezing or scanning the
   thread table.  One field load — cheap enough to bracket every map
   operation with two calls.  Quantum charges write the thread's vclock
   per-op, so this read is settled even in the middle of a burst. *)
let now t = (current_thread t).vclock

(* ------------------------------------------------------------------ *)
(* Quantum grant / settle                                              *)

(* Revoke the quantum and fold its accrued steps into the scheduler
   counters.  Called at every point where scheduling state could change
   or be observed: [step] entry, thread exit (retc/exnc), mutex block
   and hand-off, and explicit device barriers.  Idempotent and cheap
   when no quantum is outstanding (two field tests). *)
let[@inline] settle_quantum q =
  q.q_budget <- 0;
  if q.q_used > 0 then begin
    let t = q.q_sched in
    t.steps <- t.steps + q.q_used;
    t.fast_budget <- t.fast_budget - q.q_used;
    q.q_used <- 0
  end

let quantum_settle q = settle_quantum q
let quantum_handle t = t.quantum
let quantum_enabled t = t.quantum_on

(* Charge one uncontended step against a held quantum: same clock
   update and the same jitter draw from the same stream as the [step]
   fast path, minus every per-op scheduler check (those were hoisted
   into the grant).  Returns false when no quantum is held, sending the
   caller down the ordinary [step] road. *)
let[@inline] quantum_try_charge q ~cost =
  let b = q.q_budget in
  if b <= 0 then false
  else begin
    let jitter =
      if q.q_jitter > 0 then Sim_rng.int q.q_rng (q.q_jitter + 1) else 0
    in
    q.q_thread.vclock <- q.q_thread.vclock + cost + jitter;
    q.q_budget <- b - 1;
    q.q_used <- q.q_used + 1;
    true
  end

(* Grant a quantum to the executing thread if a burst of inline charges
   is provably equivalent to charging through [step]: it must be the
   only runnable thread (no interleaving, no tie-break draws), within
   the deterministic slice (same forced-suspension cadence), and the
   budget is clamped so the step that would open the crash window — and
   every step after it — still goes through [step]. *)
let[@inline] maybe_grant t =
  if t.quantum_on && t.runnable_count = 1 && t.current >= 0 then begin
    let budget =
      match t.crash_at_step with
      | None -> t.fast_budget
      | Some c ->
          let d = c - t.steps - 1 in
          if d < t.fast_budget then d else t.fast_budget
    in
    if budget > 0 then begin
      let q = t.quantum in
      q.q_thread <- t.threads.(t.current);
      q.q_budget <- budget
    end
  end

(* A quantum handle that never grants: what a [Pmem] charges against
   before a scheduler is wired in.  Owned by a throwaway scheduler that
   never runs, so its budget stays 0 forever. *)
let null_quantum = (create ()).quantum

(* The hot path of the whole simulator: one call per simulated memory
   access.  Its contract is "charge, suspend, let the run loop resume
   the runnable thread with the minimum clock".  Whenever that loop
   would provably hand the CPU straight back to the caller, the round
   trip through [Effect.perform] buys nothing, so the pick's state
   updates and RNG draws are done inline instead:

   - one runnable thread (every single-thread run, and the tail of a
     multi-thread one): the pick has one candidate and draws nothing,
     so the step only counts down the [deterministic_slice] budget that
     forces a periodic trip through the loop;
   - several runnable threads: the caller is re-picked exactly when its
     new clock stays strictly below [t.horizon], and the pick's only
     draws are then the prefix ties recorded by [arm_horizon], which
     are replayed with the same bounds in the same order.

   [deterministic_slice = 0] suspends on every step: the reference the
   fast roads are checked against. *)
let step t ~cost =
  settle_quantum t.quantum;
  let th = current_thread t in
  let jitter =
    if t.cost_jitter > 0 then Sim_rng.int t.rng (t.cost_jitter + 1) else 0
  in
  th.vclock <- th.vclock + cost + jitter;
  t.steps <- t.steps + 1;
  (match t.crash_at_step with
  | Some c when t.steps >= c ->
      (* Never returns: the operation that would have followed this step
         never executes, and neither does anything else in any thread. *)
      Effect.perform Crash_eff
  | Some _ | None -> ());
  if t.runnable_count = 1 && t.fast_budget > 0 then
    t.fast_budget <- t.fast_budget - 1
  else if th.vclock < t.horizon then begin
    for j = 0 to t.prefix_len - 1 do
      ignore (Sim_rng.int t.rng t.prefix.(j) : int)
    done;
    t.fast_budget <- t.deterministic_slice
  end
  else Effect.perform Suspend_eff;
  (* Reaching here means the charge completed without a crash — offer
     the device layer a fresh burst (this also re-grants right after a
     resumption, since [perform] returns into this frame). *)
  maybe_grant t

let yield t = step t ~cost:0

let elapsed_cycles t =
  freeze t;
  Array.fold_left (fun acc th -> max acc th.vclock) 0 t.threads

let total_steps t = t.steps + t.quantum.q_used

let thread_cycles t id =
  freeze t;
  t.threads.(id).vclock

let is_crashed t = t.crashed

(* One deep handler is installed per fiber at its first resumption; every
   later [continue] re-enters it, so the closed-over [th] is always the
   fiber's own record.  The effect cases are built once here, so
   handling an effect allocates nothing. *)
let handler t th =
  let on_suspend =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.state <- Suspended;
        th.k <- k)
  in
  let on_block =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.state <- Blocked;
        th.k <- k;
        t.runnable_count <- t.runnable_count - 1)
  in
  (* Abandons the continuation, and with it every thread. *)
  let on_crash =
    Some (fun (_ : (unit, unit) Effect.Deep.continuation) -> t.crashed <- true)
  in
  {
    Effect.Deep.retc =
      (fun () ->
        settle_quantum t.quantum;
        th.state <- Done;
        t.runnable_count <- t.runnable_count - 1);
    exnc =
      (fun e ->
        settle_quantum t.quantum;
        th.state <- Done;
        t.runnable_count <- t.runnable_count - 1;
        if t.failure = None then
          t.failure <- Some (e, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Suspend_eff -> on_suspend
        | Block_eff -> on_block
        | Crash_eff -> on_crash
        | _ -> None);
  }

(* The runnable thread with the minimum clock, or -1 if there is none.
   Clock ties are reservoir-sampled in index order, so equal-time
   threads interleave differently across seeds. *)
let pick t =
  let threads = t.threads in
  let best = ref (-1) and best_clock = ref 0 and ties = ref 0 in
  for i = 0 to Array.length threads - 1 do
    let th = threads.(i) in
    match th.state with
    | Fresh | Suspended ->
        if !best < 0 || th.vclock < !best_clock then begin
          best := i;
          best_clock := th.vclock;
          ties := 1
        end
        else if th.vclock = !best_clock then begin
          incr ties;
          if Sim_rng.int t.rng !ties = 0 then best := i
        end
    | Running | Blocked | Done -> ()
  done;
  !best

(* Called as thread [i] is resumed.  Until it next suspends, no other
   thread's clock or state can change except through its own mutex
   hand-off (which invalidates what this computes), so [pick] will
   return [i] again exactly when [i]'s clock is below every other
   runnable one, and its draws will be the tie draws it makes among the
   threads scanned before [i].  Those bounds depend only on those
   threads' clocks, not on the draws' outcomes, so they can be recorded
   now and replayed later. *)
let arm_horizon t i =
  let threads = t.threads in
  let horizon = ref max_int and best_clock = ref max_int in
  let ties = ref 0 and n = ref 0 in
  for j = 0 to Array.length threads - 1 do
    let th = threads.(j) in
    match th.state with
    | (Fresh | Suspended) when j <> i ->
        let c = th.vclock in
        if c < !horizon then horizon := c;
        if j < i then
          if c < !best_clock then begin
            best_clock := c;
            ties := 1
          end
          else if c = !best_clock then begin
            incr ties;
            t.prefix.(!n) <- !ties;
            incr n
          end
    | Fresh | Suspended | Running | Blocked | Done -> ()
  done;
  t.horizon <- !horizon;
  t.prefix_len <- !n

let run ?crash_at_step t =
  if t.started then invalid_arg "Scheduler.run: scheduler already ran";
  t.started <- true;
  freeze t;
  t.prefix <- Array.make (Array.length t.threads) 0;
  t.crash_at_step <- crash_at_step;
  let rec loop () =
    if t.crashed then Crashed { at_step = t.steps }
    else
      match t.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          let i = pick t in
          if i < 0 then begin
            let blocked =
              Array.to_list t.threads
              |> List.filter (fun th -> th.state = Blocked)
              |> List.map (fun th -> th.name)
            in
            if blocked = [] then Completed else Deadlocked { blocked }
          end
          else begin
            let th = t.threads.(i) in
            t.current <- i;
            t.fast_budget <- t.deterministic_slice;
            if t.deterministic_slice > 0 && t.runnable_count > 1 then
              arm_horizon t i
            else t.horizon <- min_int;
            (match t.tracer with
            | Some tr when i <> t.last_resumed ->
                t.last_resumed <- i;
                Obs.Tracer.emit tr ~code:Obs.Event.ctx_switch ~a:i
                  ~b:th.vclock
            | Some _ | None -> ());
            (match th.state with
            | Fresh ->
                th.state <- Running;
                Effect.Deep.match_with th.body () (handler t th)
            | Suspended ->
                th.state <- Running;
                Effect.Deep.continue th.k ()
            | (Running | Blocked | Done) as st ->
                (* [pick] only ever returns runnable threads; seeing
                   anything else means the thread table was mutated
                   behind the run loop's back (e.g. two schedulers
                   wired to one device). *)
                Fmt.invalid_arg
                  "Scheduler.run: picked thread %d (%s) is %s, not \
                   runnable, at step %d (vclock %d)"
                  th.id th.name
                  (match st with
                  | Running -> "already running"
                  | Blocked -> "blocked"
                  | Done -> "done"
                  | Fresh | Suspended -> "runnable")
                  t.steps th.vclock);
            t.current <- -1;
            loop ()
          end
  in
  loop ()

module Mutex = struct
  type nonrec mutex = mutex

  let create t =
    let mid = t.next_mutex_id in
    t.next_mutex_id <- mid + 1;
    { mid; sched = t; owner = -1; waiters = Queue.create () }

  let id m = m.mid

  let lock m =
    let me = current_thread m.sched in
    let o = m.owner in
    if o = me.id then
      Fmt.invalid_arg "Scheduler.Mutex.lock: %s already holds mutex %d"
        me.name m.mid
    else if o < 0 then m.owner <- me.id
    else begin
      (* Suspend; [unlock] hands ownership over before resuming us, so
         on return the mutex is ours.  An outstanding quantum must be
         settled here: the block does not pass through [step]. *)
      settle_quantum m.sched.quantum;
      Queue.add me m.waiters;
      Effect.perform Block_eff
    end

  let unlock m =
    let me = current_thread m.sched in
    if m.owner <> me.id then
      Fmt.invalid_arg "Scheduler.Mutex.unlock: %s does not hold mutex %d"
        me.name m.mid
    else if Queue.is_empty m.waiters then m.owner <- -1
    else begin
      let th = Queue.take m.waiters in
      let t = m.sched in
      (* The wake makes a second thread runnable: any quantum the
         releaser still holds is no longer uncontended — revoke it so
         its next charge goes back through the effect path — and the
         woken thread may undercut or tie the releaser's clock, so the
         re-pick horizon no longer holds. *)
      settle_quantum t.quantum;
      t.horizon <- min_int;
      m.owner <- th.id;
      (* The waiter could not have proceeded before the release, so its
         clock jumps forward to the release instant. *)
      if me.vclock > th.vclock then th.vclock <- me.vclock;
      th.state <- Suspended;
      t.runnable_count <- t.runnable_count + 1
    end

  let owner m = if m.owner < 0 then None else Some m.owner
end
