package core

// RandomCluster exposes the randomized schema generator to the external
// tests, which draw designs from packages that import core.
var RandomCluster = randomCluster
