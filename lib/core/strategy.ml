type closure_budget = Unbounded | Bytes of int
type alloc_grouping = By_origin | Sequential | By_type | Entry_per_page
type closure_order = Breadth_first | Depth_first
type writeback_grain = Page_grain | Twin_diff
type admission_policy = Queue_conflicts | Abort_retry
type offload_mode = Offload_never | Offload_auto | Offload_always

type t = {
  budget : closure_budget;
  grouping : alloc_grouping;
  order : closure_order;
  grain : writeback_grain;
  batch_remote_ops : bool;
  delta_coherency : bool;
  admission : admission_policy;
  offload : offload_mode;
}

let smart ?(closure_size = 8192) ?(delta = false)
    ?(admission = Queue_conflicts) ?(offload = Offload_never) () =
  {
    budget = Bytes closure_size;
    grouping = By_origin;
    order = Breadth_first;
    grain = Page_grain;
    batch_remote_ops = true;
    delta_coherency = delta;
    admission;
    offload;
  }

let fully_eager =
  {
    budget = Unbounded;
    grouping = By_origin;
    order = Breadth_first;
    grain = Page_grain;
    batch_remote_ops = true;
    delta_coherency = false;
    admission = Queue_conflicts;
    offload = Offload_never;
  }

let fully_lazy =
  {
    budget = Bytes 0;
    grouping = Entry_per_page;
    order = Breadth_first;
    grain = Page_grain;
    batch_remote_ops = true;
    delta_coherency = false;
    admission = Queue_conflicts;
    offload = Offload_never;
  }

let admission_name = function
  | Queue_conflicts -> "queue"
  | Abort_retry -> "abort-retry"

let pp ppf t =
  let budget ppf = function
    | Unbounded -> Format.pp_print_string ppf "inf"
    | Bytes n -> Format.fprintf ppf "%dB" n
  in
  let grouping = function
    | By_origin -> "by-origin"
    | Sequential -> "sequential"
    | By_type -> "by-type"
    | Entry_per_page -> "entry-per-page"
  in
  let order = function Breadth_first -> "bfs" | Depth_first -> "dfs" in
  let grain = function Page_grain -> "page" | Twin_diff -> "twin-diff" in
  (* The suffix is elided at [Offload_never] so every pre-offload
     strategy renders byte-identically (trace fingerprints). *)
  let offload = function
    | Offload_never -> ""
    | Offload_auto -> ";off=auto"
    | Offload_always -> ";off=always"
  in
  Format.fprintf ppf
    "{closure=%a;group=%s;order=%s;grain=%s;batch=%b;delta=%b;adm=%s%s}" budget
    t.budget (grouping t.grouping) (order t.order) (grain t.grain)
    t.batch_remote_ops t.delta_coherency
    (admission_name t.admission) (offload t.offload)

let budget_allows t ~total ~extra =
  match t.budget with
  | Unbounded -> true
  | Bytes b -> total + extra <= b
