module Value = Eba_sim.Value

type t = {
  mutable runs : int;
  mutable agreement : int;
  mutable validity : int;
  mutable undecided : int;
  mutable decided : int;
  mutable round_sum : int;
  mutable round_max : int;
  mutable hist : int array;
}

let create () =
  {
    runs = 0;
    agreement = 0;
    validity = 0;
    undecided = 0;
    decided = 0;
    round_sum = 0;
    round_max = 0;
    hist = [||];
  }

let grow t len =
  if len > Array.length t.hist then begin
    let a = Array.make (max len (2 * Array.length t.hist)) 0 in
    Array.blit t.hist 0 a 0 (Array.length t.hist);
    t.hist <- a
  end

let record ?on_decide t ~n ~faulty ~unanimous ~decisions =
  t.runs <- t.runs + 1;
  let seen = ref None and agreement_bad = ref false and validity_bad = ref false in
  for i = 0 to n - 1 do
    if not (faulty i) then
      match decisions.(i) with
      | None -> t.undecided <- t.undecided + 1
      | Some { Runner.at; value } ->
          t.decided <- t.decided + 1;
          t.round_sum <- t.round_sum + at;
          if at > t.round_max then t.round_max <- at;
          grow t (at + 1);
          t.hist.(at) <- t.hist.(at) + 1;
          (match on_decide with Some f -> f i | None -> ());
          (match !seen with
          | None -> seen := Some value
          | Some v -> if not (Value.equal v value) then agreement_bad := true);
          (match unanimous with
          | Some v when not (Value.equal v value) -> validity_bad := true
          | Some _ | None -> ())
  done;
  if !agreement_bad then t.agreement <- t.agreement + 1;
  if !validity_bad then t.validity <- t.validity + 1

let merge into from =
  into.runs <- into.runs + from.runs;
  into.agreement <- into.agreement + from.agreement;
  into.validity <- into.validity + from.validity;
  into.undecided <- into.undecided + from.undecided;
  into.decided <- into.decided + from.decided;
  into.round_sum <- into.round_sum + from.round_sum;
  into.round_max <- max into.round_max from.round_max;
  grow into (Array.length from.hist);
  Array.iteri (fun r v -> into.hist.(r) <- into.hist.(r) + v) from.hist

let round_hist t =
  let len = ref (Array.length t.hist) in
  while !len > 0 && t.hist.(!len - 1) = 0 do
    decr len
  done;
  Array.sub t.hist 0 !len

let mean ~sum ~count =
  if count = 0 then 0.0 else float_of_int sum /. float_of_int count
