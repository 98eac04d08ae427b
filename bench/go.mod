module grasp/bench

go 1.22

require grasp v0.0.0

replace grasp => ../
