(** Loop unrolling — the classic alternative to instruction replication.

    The paper's related work (Section 6) cites Sánchez & González: on
    clustered VLIWs, unrolling the loop body before modulo scheduling
    lets the partitioner put whole iterations on different clusters,
    removing most communications — at the price of a proportionally
    larger kernel (code size is critical on the DSPs these machines
    power).  We implement the transform so the comparison experiment can
    be reproduced ([repro extensions]).

    Unrolling by [factor] U replaces the body with U renamed copies;
    a loop-carried dependence of distance [d] from copy [k] targets copy
    [(k + d) mod U], with distance [(k + d) / U] in the unrolled loop's
    iteration space.  Trip counts divide by U (the remainder iterations
    would run in a scalar epilogue, which the IPC accounting charges by
    rounding up). *)

val unroll : Ddg.Graph.t -> factor:int -> Ddg.Graph.t
(** @raise Invalid_argument when [factor < 1]. *)

val unrolled_loop :
  Generator.loop -> factor:int -> Generator.loop
(** The same loop with its body unrolled and its trip count divided
    (rounded up); the id gains a ["xU"] suffix. *)
